package bsp

// Step-targeted fault schedules. The probabilistic injector (faults.go)
// answers "does recovery work under random failure rates"; the chaos harness
// (internal/chaos) needs the sharper question "does recovery work when
// worker W dies exactly at superstep S" — deterministic, named events at
// named barriers. A scheduled fault fires exactly once: the schedule state
// lives in the factory, so a transport rebuilt during checkpoint recovery
// sees the remaining schedule instead of deterministically replaying the
// same fault forever. The faults are injected by faultTransport (faults.go).

import (
	"fmt"
	"sync"
	"time"
)

// StepFaultKind enumerates what a scheduled fault does to its barrier.
type StepFaultKind uint8

const (
	// StepFaultKill simulates worker death mid-superstep: the barrier's
	// exchange fails with nothing delivered (Giraph detects worker failure
	// exactly this way — at the barrier).
	StepFaultKill StepFaultKind = iota + 1
	// StepFaultDrop drops the whole barrier batch; the loss surfaces as an
	// error at the barrier with nothing delivered.
	StepFaultDrop
	// StepFaultDelay delays the barrier's frames by Delay, then delivers.
	StepFaultDelay
	// StepFaultPartition simulates a mesh partition: frames between the two
	// halves are undeliverable, failing the barrier with nothing delivered.
	StepFaultPartition
)

// String names the kind for error text and chaos reports.
func (k StepFaultKind) String() string {
	switch k {
	case StepFaultKill:
		return "kill"
	case StepFaultDrop:
		return "drop"
	case StepFaultDelay:
		return "delay"
	case StepFaultPartition:
		return "partition"
	default:
		return fmt.Sprintf("StepFaultKind(%d)", uint8(k))
	}
}

// StepFault is one scheduled event: at superstep Step, do Kind. Worker names
// the victim (kill) or the partition boundary (workers < Worker on one side)
// — it shapes the error text so logs and tests can tell schedules apart.
//
// In async mode there is no superstep: Step is matched against per-worker
// wire-frame sequence numbers instead (each worker numbers the frames it
// sends over the transport from 1), and the first Send carrying that seq
// claims the fault. A StepFault at step S therefore fires on whichever
// worker first flushes its S-th wire frame, exactly once.
type StepFault struct {
	Step   int
	Kind   StepFaultKind
	Worker int
	// Delay is the injected latency for StepFaultDelay.
	Delay time.Duration
}

// NewScheduledFaultExchangeFactory wraps inner (nil = the in-process
// exchange) so each scheduled fault fires exactly once when its superstep's
// exchange runs. Faults sharing a step fire on successive attempts of that
// step (the first attempt fires the first unfired one, and so on), so a
// schedule can e.g. kill the same barrier twice to exhaust a retry budget.
func NewScheduledFaultExchangeFactory(inner ExchangeFactory, faults []StepFault) *ScheduledFaultFactory {
	return &ScheduledFaultFactory{inner: inner, schedule: &scheduleState{
		faults: append([]StepFault(nil), faults...),
		fired:  make([]bool, len(faults)),
	}}
}

// ScheduledFaultFactory is the fault-injecting ExchangeFactory: it carries
// the policy state faultTransport consults — the seeded probabilistic stream
// (NewFaultyExchangeFactory) or a step schedule, whose progress Fired
// reports to the chaos harness.
type ScheduledFaultFactory struct {
	inner    ExchangeFactory
	fc       FaultConfig
	random   *faultyState
	schedule *scheduleState
}

func (*ScheduledFaultFactory) kind() string { return "fault" }

// Fired reports how many scheduled faults have fired so far.
func (f *ScheduledFaultFactory) Fired() int { return f.schedule.Fired() }

// scheduleState is shared by every transport built from one factory, so the
// fire-once bookkeeping survives transport rebuilds during recovery.
type scheduleState struct {
	mu     sync.Mutex
	faults []StepFault
	fired  []bool
}

// next claims the first unfired fault for step, or ok=false.
func (s *scheduleState) next(step int) (StepFault, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, f := range s.faults {
		if !s.fired[i] && f.Step == step {
			s.fired[i] = true
			return f, true
		}
	}
	return StepFault{}, false
}

// Fired reports how many scheduled faults have fired so far (none, for a
// factory without a schedule).
func (s *scheduleState) Fired() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, f := range s.fired {
		if f {
			n++
		}
	}
	return n
}

// scheduledFaultError renders the failing fault kinds (kill, drop,
// partition); delay returns nil and the middleware sleeps instead. The text
// says "ordinal", not "superstep": the middleware serves both policies, and in
// the pipelined one the word is a per-worker frame seq.
func scheduledFaultError(f StepFault, ord int) error {
	switch f.Kind {
	case StepFaultKill:
		return fmt.Errorf("%w: worker %d killed at ordinal %d", ErrInjectedFault, f.Worker, ord)
	case StepFaultDrop:
		return fmt.Errorf("%w: batch dropped at ordinal %d, detected before delivery", ErrInjectedFault, ord)
	case StepFaultPartition:
		return fmt.Errorf("%w: mesh partitioned at worker %d boundary, ordinal %d", ErrInjectedFault, f.Worker, ord)
	}
	return nil
}
