package bsp

// Fault injection. Distributed subgraph listing treats failure tolerance as
// a first-class requirement (Ren et al., "Fast and Robust Distributed
// Subgraph Enumeration"; DDSL); to prove our recovery machinery actually
// recovers, this file wraps any transport in a fault middleware
// (faultTransport) driven by a step schedule: named events at named
// ordinals, "fail the exchange at superstep S", deterministic by
// construction. A run with injected faults plus retry/recovery must produce
// byte-identical counts to a clean run, and the recovery tests assert exactly
// that. A scheduled fault fires exactly once: the schedule state lives in the
// factory, so a transport rebuilt during checkpoint recovery sees the
// remaining schedule instead of deterministically replaying the same fault
// forever.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrInjectedFault marks every error produced by the fault injector, so
// tests and callers can tell injected failures from real ones.
var ErrInjectedFault = errors.New("bsp: injected fault")

// StepFaultKind enumerates what a scheduled fault does to its Send.
type StepFaultKind uint8

const (
	// StepFaultFail fails the Send before the inner transport sees it, with
	// nothing delivered: how Giraph's master sees a dead worker, a lost batch
	// or a partitioned mesh — at the barrier.
	StepFaultFail StepFaultKind = iota + 1
	// StepFaultDelay holds the Send for Delay, then delivers.
	StepFaultDelay
)

// StepFault is one scheduled event: at superstep Step, do Kind.
//
// In async mode there is no superstep: Step is matched against per-worker
// wire-frame sequence numbers instead (each worker numbers the frames it
// sends over the transport from 1), and the first Send carrying that seq
// claims the fault. A StepFault at step S therefore fires on whichever
// worker first flushes its S-th wire frame, exactly once.
type StepFault struct {
	Step int
	Kind StepFaultKind
	// Delay is the injected latency for StepFaultDelay.
	Delay time.Duration
}

// NewScheduledFaultExchangeFactory wraps inner (nil = the in-process
// exchange) so each scheduled fault fires exactly once when its superstep's
// exchange runs. Faults sharing a step fire on successive attempts of that
// step (the first attempt fires the first unfired one, and so on), so a
// schedule can e.g. fail the same barrier twice to exhaust a retry budget.
func NewScheduledFaultExchangeFactory(inner ExchangeFactory, faults []StepFault) *ScheduledFaultFactory {
	return &ScheduledFaultFactory{inner: inner, faults: append([]StepFault(nil), faults...), fired: make([]bool, len(faults))}
}

// ScheduledFaultFactory is the fault-injecting ExchangeFactory. It holds the
// schedule's fire-once bookkeeping, shared by every transport built from it,
// so the bookkeeping survives transport rebuilds during recovery; Fired
// reports its progress.
type ScheduledFaultFactory struct {
	inner  ExchangeFactory
	mu     sync.Mutex
	faults []StepFault
	fired  []bool
}

func (*ScheduledFaultFactory) kind() string { return "fault" }

// next claims the first unfired fault for step, or ok=false.
func (f *ScheduledFaultFactory) next(step int) (StepFault, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, sf := range f.faults {
		if !f.fired[i] && sf.Step == step {
			f.fired[i] = true
			return sf, true
		}
	}
	return StepFault{}, false
}

// Fired reports how many scheduled faults have fired so far.
func (f *ScheduledFaultFactory) Fired() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, fired := range f.fired {
		if fired {
			n++
		}
	}
	return n
}

// faultTransport is the fault middleware: it wraps any transport and
// decides, before the inner transport sees the batch, whether this Send
// fails, stalls, or passes — so a failed Send delivers and acks nothing,
// exactly the contract retry and checkpoint recovery rely on. It matches the
// schedule against the ordinal word the frame is sent under.
//
// Every Send is a fault opportunity unless the loop's faultPoint hook names
// fewer: every pipelined wire frame is one, but a superstep sends up to K×K
// frames under one ordinal and fails as a whole, so the stepped policy names
// only the frame that opens it (0→0, which worker 0 sends first among its own
// frames, empty or not — the final superstep's too, since worker 0 cannot
// know nothing was produced). Same-step faults then fire on successive
// attempts of that frame — three failures exhaust a three-attempt retry
// budget and force a restore, as a dead worker should.
type faultTransport[M any] struct {
	inner    transport[M]
	point    func(src, dst int) bool
	schedule *ScheduledFaultFactory
}

func (f *faultTransport[M]) Send(ctx context.Context, src, dst, ord int, batch [][]Envelope[M]) (bool, error) {
	if f.point == nil || f.point(src, dst) {
		if sf, ok := f.schedule.next(ord); ok {
			// The text says "ordinal", not "superstep": in the pipelined
			// policy the word is a per-worker frame seq.
			if sf.Kind == StepFaultFail {
				return false, fmt.Errorf("%w: send failed at ordinal %d", ErrInjectedFault, ord)
			}
			if err := sleepCtx(ctx, sf.Delay); err != nil {
				return false, err
			}
		}
	}
	return f.inner.Send(ctx, src, dst, ord, batch)
}

func (f *faultTransport[M]) Close() error { return f.inner.Close() }
