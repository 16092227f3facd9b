// Package chaos is the deterministic chaos harness for the listing engine's
// recovery, as the CLI and the library run it (retry, in-run checkpoint
// restore, restart), and the source of BENCH_chaos.json: it runs the same
// query twice — once clean, once under a seeded fault schedule (kill worker W
// at superstep S, drop or delay a barrier's frames, partition the exchange
// mesh, corrupt a checkpoint) — and verifies the two embedding counts are
// bit-identical. The harness is how the repo turns the
// paper's implicit reliance on Giraph's fault tolerance (Section 6 runs on
// Hadoop, where worker death is routine) into a testable property: recovery
// must be invisible in the answer, not just in the exit code.
//
// Everything is seeded. The same Schedule produces the same faults at the
// same barriers on every run, so a chaos failure reproduces with its seed.
package chaos

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"psgl/internal/bsp"
	"psgl/internal/core"
	"psgl/internal/graph"
	"psgl/internal/obs"
	"psgl/internal/pattern"
)

// EventKind enumerates what a scheduled chaos event does.
type EventKind uint8

const (
	// Kill simulates worker death mid-superstep: the barrier fails with
	// nothing delivered, the way Giraph's master sees a dead worker.
	Kill EventKind = iota + 1
	// Drop loses the barrier's whole frame batch; detected at the barrier.
	Drop
	// Delay holds the barrier's frames for Event.Delay, then delivers.
	Delay
	// Partition splits the exchange mesh; frames across the cut are
	// undeliverable and the barrier fails.
	Partition
	// CorruptCheckpoint flips a byte in the snapshot sealed at the barrier
	// closing superstep Event.Step, before it reaches the store. Pair it
	// with a Kill at Event.Step+1 so the next restore reads the mangled
	// snapshot: the corruption must then be *detected*
	// (bsp.ErrCorruptCheckpoint) — a silently-wrong count is the one
	// outcome chaos exists to rule out.
	CorruptCheckpoint
)

// String names the kind for reports and error text.
func (k EventKind) String() string {
	switch k {
	case Kill:
		return "kill"
	case Drop:
		return "drop"
	case Delay:
		return "delay"
	case Partition:
		return "partition"
	case CorruptCheckpoint:
		return "corrupt-checkpoint"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// Event is one scheduled fault: at superstep Step, do Kind.
type Event struct {
	Step int
	Kind EventKind
	// Worker names the victim (Kill) or the partition boundary (Partition)
	// in reports; either way the whole barrier fails.
	Worker int
	// Delay is the injected latency for Delay events.
	Delay time.Duration
}

// Schedule is a reproducible fault plan. Seed documents where the plan came
// from; the retry backoff is deterministic, so the whole run is replayable
// from the schedule alone.
type Schedule struct {
	Seed   int64
	Events []Event
}

// String renders the schedule compactly for logs: "seed=7 kill@3(w1) drop@5".
func (s Schedule) String() string {
	out := fmt.Sprintf("seed=%d", s.Seed)
	for _, e := range s.Events {
		switch e.Kind {
		case Kill, Partition:
			out += fmt.Sprintf(" %s@%d(w%d)", e.Kind, e.Step, e.Worker)
		case Delay:
			out += fmt.Sprintf(" %s@%d(%v)", e.Kind, e.Step, e.Delay)
		default:
			out += fmt.Sprintf(" %s@%d", e.Kind, e.Step)
		}
	}
	return out
}

// splitmix64 is the schedule generator's PRNG — tiny, seedable, and decoupled
// from math/rand so schedules are stable across Go releases.
type splitmix64 struct{ s uint64 }

func (r *splitmix64) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

func (r *splitmix64) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// NewKillSchedule is the acceptance-criteria schedule: kill one worker at a
// seeded-random superstep. Steps land in [1, maxStep] so the kill always hits
// a barrier a real run reaches (superstep 0 is initialization).
func NewKillSchedule(seed int64, workers, maxStep int) Schedule {
	r := splitmix64{s: uint64(seed)}
	if maxStep < 1 {
		maxStep = 1
	}
	return Schedule{Seed: seed, Events: []Event{{
		Step:   1 + r.intn(maxStep),
		Kind:   Kill,
		Worker: r.intn(workers),
	}}}
}

// NewSchedule draws n seeded-random exchange faults (kill, drop, delay,
// partition — not checkpoint corruption, which needs deliberate pairing with
// a later fault to be observable; build those schedules explicitly).
func NewSchedule(seed int64, workers, maxStep, n int) Schedule {
	r := splitmix64{s: uint64(seed)}
	if maxStep < 1 {
		maxStep = 1
	}
	s := Schedule{Seed: seed}
	kinds := []EventKind{Kill, Kill, Drop, Delay, Partition}
	for i := 0; i < n; i++ {
		e := Event{
			Step:   1 + r.intn(maxStep),
			Kind:   kinds[r.intn(len(kinds))],
			Worker: r.intn(workers),
		}
		if e.Kind == Delay {
			e.Delay = time.Duration(1+r.intn(5)) * time.Millisecond
		}
		s.Events = append(s.Events, e)
	}
	return s
}

// Config describes the query under chaos and its recovery budget.
type Config struct {
	Graph   *graph.Graph
	Pattern *pattern.Pattern
	// Opts is the base engine configuration (workers, seed, AsyncExchange).
	// Its exchange/checkpoint/retry fields are overridden by the harness.
	Opts core.Options
	// Exchange is the transport under test (nil = the in-process exchange;
	// bsp.NewTCPExchangeFactory() exercises the wire path).
	Exchange bsp.ExchangeFactory
	// CheckpointEvery is the snapshot cadence for the chaos run. 0 means 1
	// (every barrier) so any kill step has a checkpoint to restore.
	CheckpointEvery int
	// MaxRecoveries bounds in-run checkpoint restores. 0 means
	// 4 + 2*len(events).
	MaxRecoveries int
	// MaxRestarts bounds whole-run re-admissions after an unrecoverable
	// failure (recovery budget exhausted, or a corrupt checkpoint detected
	// at restore). 0 means 2.
	MaxRestarts int
	// Observer, when non-nil, receives the chaos run's counters and trace.
	Observer *obs.Observer
}

// Outcome is the verdict of one chaos run.
type Outcome struct {
	Schedule string `json:"schedule"`
	// CleanCount and ChaosCount are the two embedding counts; Identical is
	// the property under test.
	CleanCount int64 `json:"clean_count"`
	ChaosCount int64 `json:"chaos_count"`
	Identical  bool  `json:"identical"`
	// FaultsInjected is the schedule size; FaultsFired counts the step faults
	// its exchange events expand to (a kill or a partition fails every retry
	// of its barrier), all of which fire or Run fails, plus the snapshots
	// corrupted.
	FaultsInjected int `json:"faults_injected"`
	FaultsFired    int `json:"faults_fired"`
	// Recoveries counts in-run checkpoint restores across all attempts;
	// Retries counts exchange retry attempts; Restarts counts whole-run
	// re-admissions.
	Recoveries int64 `json:"recoveries"`
	Retries    int64 `json:"retries"`
	Restarts   int   `json:"restarts"`
	// CorruptionsInjected counts snapshots the harness mangled;
	// CorruptionsDetected counts restores that surfaced
	// bsp.ErrCorruptCheckpoint instead of silently restoring bad state.
	CorruptionsInjected int           `json:"corruptions_injected"`
	CorruptionsDetected int           `json:"corruptions_detected"`
	CleanWall           time.Duration `json:"clean_wall_ns"`
	ChaosWall           time.Duration `json:"chaos_wall_ns"`
}

// corrupter tracks which checkpoint steps still need corrupting; it is
// shared across store incarnations so each corruption fires exactly once
// even when a restart swaps in a fresh store.
type corrupter struct {
	mu        sync.Mutex
	steps     map[int]bool
	corrupted int
}

func newCorrupter(events []Event) *corrupter {
	c := &corrupter{steps: make(map[int]bool)}
	for _, e := range events {
		if e.Kind == CorruptCheckpoint {
			// The engine seals superstep S's barrier snapshot as step S+1.
			c.steps[e.Step+1] = true
		}
	}
	return c
}

func (c *corrupter) claim(step int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.steps[step] {
		return false
	}
	delete(c.steps, step)
	c.corrupted++
	return true
}

func (c *corrupter) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.corrupted
}

// corruptingStore flips one byte of the snapshot for claimed steps on its way
// into the inner store. The CRC seal inside the snapshot means a later Load
// must fail with bsp.ErrCorruptCheckpoint — never restore silently-wrong
// state.
type corruptingStore struct {
	inner bsp.CheckpointStore
	c     *corrupter
}

func (s *corruptingStore) Save(step int, data []byte) error {
	if s.c.claim(step) && len(data) > 0 {
		mangled := append([]byte(nil), data...)
		mangled[len(mangled)/2] ^= 0x40
		data = mangled
	}
	return s.inner.Save(step, data)
}

func (s *corruptingStore) Load() (int, []byte, error) { return s.inner.Load() }

// Run executes cfg's query clean, then under sched, and compares the counts.
// A chaos attempt that dies beyond its in-run recovery budget — or trips
// over a corrupted checkpoint — is re-admitted whole (fresh store, faults
// already fired stay fired) up to MaxRestarts times, each counted in
// Outcome.Restarts. The returned error is
// non-nil only when the harness itself cannot complete (the query never
// survives the schedule, or an exchange fault of it never fired, so the run
// tested less than the schedule says); a count mismatch is reported via
// Outcome.Identical, which callers must check.
func Run(ctx context.Context, cfg Config, sched Schedule) (*Outcome, error) {
	if cfg.Graph == nil || cfg.Pattern == nil {
		return nil, fmt.Errorf("chaos: nil graph or pattern")
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 1
	}
	if cfg.MaxRecoveries <= 0 {
		cfg.MaxRecoveries = 4 + 2*len(sched.Events)
	}
	if cfg.MaxRestarts <= 0 {
		cfg.MaxRestarts = 2
	}

	out := &Outcome{Schedule: sched.String(), FaultsInjected: len(sched.Events)}

	// Reference run: plain options, in-process exchange, no fault layer.
	cleanOpts := cfg.Opts
	cleanOpts.Exchange = nil
	cleanOpts.Observer = nil
	start := time.Now()
	clean, err := core.RunContext(ctx, cfg.Graph, cfg.Pattern, cleanOpts)
	out.CleanWall = time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("chaos: clean run failed: %w", err)
	}
	out.CleanCount = clean.Count

	// Chaos run: scheduled faults on the exchange, corruption on the store;
	// the retry backoff is deterministic, so the whole run replays from the
	// schedule.
	retry := bsp.RetryPolicy{
		MaxAttempts: 3,
		BaseBackoff: 100 * time.Microsecond,
		MaxBackoff:  2 * time.Millisecond,
	}
	var stepFaults []bsp.StepFault
	for _, e := range sched.Events {
		k, repeat := bsp.StepFaultFail, 1
		switch e.Kind {
		case Kill, Partition:
			// A dead worker or a cut mesh fails every retry of the barrier —
			// only a checkpoint restore gets past it. A single fire would be
			// absorbed by retry, which is Drop's semantics.
			repeat = retry.MaxAttempts
		case Drop:
		case Delay:
			k = bsp.StepFaultDelay
		default:
			continue // corruption is injected at the store, not the exchange
		}
		for i := 0; i < repeat; i++ {
			stepFaults = append(stepFaults, bsp.StepFault{Step: e.Step, Kind: k, Delay: e.Delay})
		}
	}
	// Same-ordinal faults fire on successive attempts in schedule order, and
	// a delayed attempt succeeds: failures go first, or a delay ahead of them
	// would leave them unfired.
	slices.SortStableFunc(stepFaults, func(a, b bsp.StepFault) int { return cmp.Compare(a.Kind, b.Kind) })
	factory := bsp.NewScheduledFaultExchangeFactory(cfg.Exchange, stepFaults)
	corr := newCorrupter(sched.Events)

	o := cfg.Observer
	if o == nil {
		o = obs.New(nil)
	}

	chaosOpts := cfg.Opts
	chaosOpts.Exchange = factory
	chaosOpts.Observer = o
	chaosOpts.CheckpointEvery = cfg.CheckpointEvery
	chaosOpts.MaxRecoveries = cfg.MaxRecoveries
	chaosOpts.Retry = retry

	start = time.Now()
	var res *core.Result
	for attempt := 0; ; attempt++ {
		chaosOpts.CheckpointStore = &corruptingStore{inner: bsp.NewMemCheckpointStore(), c: corr}
		res, err = core.RunContext(ctx, cfg.Graph, cfg.Pattern, chaosOpts)
		if err == nil {
			break
		}
		if ctx.Err() != nil {
			return nil, fmt.Errorf("chaos: canceled: %w", err)
		}
		corrupt := errors.Is(err, bsp.ErrCorruptCheckpoint)
		if corrupt {
			out.CorruptionsDetected++
		}
		if !corrupt && !errors.Is(err, bsp.ErrInjectedFault) {
			return nil, fmt.Errorf("chaos: run failed outside the schedule: %w", err)
		}
		if attempt >= cfg.MaxRestarts {
			return nil, fmt.Errorf("chaos: query did not survive schedule %s after %d restarts: %w",
				sched, attempt, err)
		}
		out.Restarts++
	}
	if n := factory.Fired(); n != len(stepFaults) {
		return nil, fmt.Errorf("chaos: %d of the %d exchange faults of schedule %s fired: it names ordinals the run does not reach",
			n, len(stepFaults), sched)
	}
	out.ChaosWall = time.Since(start)
	out.ChaosCount = res.Count
	out.Identical = out.ChaosCount == out.CleanCount
	out.FaultsFired = factory.Fired() + corr.count()
	out.CorruptionsInjected = corr.count()
	snap := o.Snapshot()
	out.Recoveries = snap.Recoveries
	out.Retries = snap.Retries
	return out, nil
}
