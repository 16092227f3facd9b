package bsp

// Tests for the fault-tolerance layer of the run loops: abort
// short-circuiting, context cancellation, superstep deadlines, barrier
// checkpointing + resume, in-run checkpoint-restore recovery, and frame
// retry. The transports themselves are covered by transport_test.go.

import (
	"context"
	"errors"
	"os"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"psgl/internal/graph"
)

// --- Abort short-circuit -------------------------------------------------

func TestAbortShortCircuitsInbox(t *testing.T) {
	// One worker, 100 queued messages, abort on the first: the remaining 99
	// must not be processed in that superstep.
	var processed atomic.Int64
	prog := &funcProgram[int]{
		init: func(ctx *Context[int]) {
			for i := 0; i < 100; i++ {
				ctx.Send(0, i)
			}
		},
		process: func(ctx *Context[int], env Envelope[int]) {
			processed.Add(1)
			ctx.Abort(errors.New("stop now"))
		},
	}
	cfg := Config{Workers: 1, Owner: func(graph.VertexID) int { return 0 }}
	stats, err := Run[int](cfg, prog)
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted", err)
	}
	if got := processed.Load(); got != 1 {
		t.Fatalf("processed %d messages after abort, want exactly 1", got)
	}
	if stats.WorkerMessages[0] != 1 {
		t.Fatalf("WorkerMessages[0] = %d, want 1 (only processed messages count)", stats.WorkerMessages[0])
	}
}

// --- Cancellation and deadlines ------------------------------------------

func TestRunContextCancellation(t *testing.T) {
	// An infinite program must stop promptly once the context expires.
	prog := &funcProgram[int]{
		init: func(ctx *Context[int]) {
			for v := 0; v < 1000; v++ {
				ctx.Send(graph.VertexID(v), 0)
			}
		},
		process: func(ctx *Context[int], env Envelope[int]) {
			ctx.Send(env.Dest, 0)
		},
	}
	part := graph.NewPartition(3, 1)
	cfg := Config{Workers: 3, Owner: func(v graph.VertexID) int { return part.Owner(v) }}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := RunContext[int](ctx, cfg, prog)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

func TestStepTimeoutFailsRunWithoutCheckpoints(t *testing.T) {
	// A superstep blowing its deadline fails the run when no checkpoint
	// recovery is configured.
	prog := &funcProgram[int]{
		init: func(ctx *Context[int]) {
			for i := 0; i < 2000; i++ {
				ctx.Send(0, i)
			}
		},
		process: func(ctx *Context[int], env Envelope[int]) {
			time.Sleep(time.Millisecond)
			ctx.Send(0, env.Msg)
		},
	}
	cfg := Config{
		Workers:     1,
		Owner:       func(graph.VertexID) int { return 0 },
		StepTimeout: 50 * time.Millisecond,
	}
	_, err := Run[int](cfg, prog)
	if err == nil {
		t.Fatal("slow superstep with StepTimeout should fail the run")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want a deadline error", err)
	}
}

// --- Checkpointing -------------------------------------------------------

func TestCheckpointCadence(t *testing.T) {
	store := NewMemCheckpointStore()
	prog, cfg := newEcho(100, 5, 4)
	cfg.CheckpointEvery = 2
	cfg.CheckpointStore = store
	stats, err := Run[wint](cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	// 7 supersteps (0..6); exchanges after steps 0..5; snapshots at barriers
	// entering even steps 2, 4, 6.
	if stats.Supersteps != 7 {
		t.Fatalf("Supersteps = %d, want 7", stats.Supersteps)
	}
	if store.Saves() != 3 {
		t.Fatalf("saves = %d, want 3 (every 2nd of 6 barriers)", store.Saves())
	}
	if store.LatestStep() != 6 {
		t.Fatalf("latest checkpoint step = %d, want 6", store.LatestStep())
	}
	if stats.Counters["delivered"] != 600 {
		t.Fatalf("delivered = %d, want 600 (checkpointing must not change results)", stats.Counters["delivered"])
	}
}

func TestCheckpointStoreRoundTrip(t *testing.T) {
	stores := map[string]CheckpointStore{
		"mem": NewMemCheckpointStore(),
	}
	fileStore, err := NewFileCheckpointStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	stores["file"] = fileStore
	for name, store := range stores {
		if _, _, err := store.Load(); !errors.Is(err, ErrNoCheckpoint) {
			t.Errorf("%s: empty Load err = %v, want ErrNoCheckpoint", name, err)
		}
		if err := store.Save(3, []byte("alpha")); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := store.Save(5, []byte("beta")); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		step, data, err := store.Load()
		if err != nil || step != 5 || string(data) != "beta" {
			t.Errorf("%s: Load = (%d, %q, %v), want (5, beta, nil)", name, step, data, err)
		}
	}
}

func TestFileCheckpointStorePersistsAndPrunes(t *testing.T) {
	dir := t.TempDir()
	store, err := NewFileCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save(1, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := store.Save(2, []byte("two")); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("%d files after pruning, want 1", len(entries))
	}
	// A fresh store over the same directory sees the latest snapshot.
	reopened, err := NewFileCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	step, data, err := reopened.Load()
	if err != nil || step != 2 || string(data) != "two" {
		t.Fatalf("reopened Load = (%d, %q, %v), want (2, two, nil)", step, data, err)
	}
}

func TestResumeFromCheckpointMatchesCleanRun(t *testing.T) {
	clean := func() *RunStats {
		prog, cfg := newEcho(60, 6, 3)
		stats, err := Run[wint](cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}()

	// Failed run: a one-shot injected fault kills the exchange at step 3,
	// after the barrier entering step 3 was checkpointed.
	store := NewMemCheckpointStore()
	prog, cfg := newEcho(60, 6, 3)
	cfg.Exchange = NewFaultyExchangeFactory(nil, FaultConfig{Seed: 1, ErrorRate: 1, FromStep: 3, MaxFaults: 1})
	cfg.CheckpointEvery = 1
	cfg.CheckpointStore = store
	_, err := Run[wint](cfg, prog)
	if !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("faulty run err = %v, want ErrInjectedFault", err)
	}
	if store.LatestStep() != 3 {
		t.Fatalf("latest checkpoint = %d, want 3", store.LatestStep())
	}

	// Resumed run: fresh program + clean exchange, state restored from the
	// last barrier. Totals must match the clean run exactly.
	prog2, cfg2 := newEcho(60, 6, 3)
	cfg2.ResumeFrom = store
	resumed, err := Run[wint](cfg2, prog2)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Supersteps != clean.Supersteps {
		t.Errorf("Supersteps = %d, want %d", resumed.Supersteps, clean.Supersteps)
	}
	if resumed.MessagesTotal != clean.MessagesTotal {
		t.Errorf("MessagesTotal = %d, want %d", resumed.MessagesTotal, clean.MessagesTotal)
	}
	if resumed.Counters["delivered"] != clean.Counters["delivered"] {
		t.Errorf("delivered = %d, want %d", resumed.Counters["delivered"], clean.Counters["delivered"])
	}
	if !reflect.DeepEqual(resumed.PerStepMessages, clean.PerStepMessages) {
		t.Errorf("PerStepMessages = %v, want %v", resumed.PerStepMessages, clean.PerStepMessages)
	}
}

func TestResumeFromEmptyStoreStartsFresh(t *testing.T) {
	prog, cfg := newEcho(50, 3, 2)
	cfg.ResumeFrom = NewMemCheckpointStore()
	stats, err := Run[wint](cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Counters["delivered"] != 200 {
		t.Fatalf("delivered = %d, want 200", stats.Counters["delivered"])
	}
}

func TestResumeRejectsWorkerMismatch(t *testing.T) {
	store := NewMemCheckpointStore()
	prog, cfg := newEcho(60, 6, 3)
	cfg.CheckpointEvery = 1
	cfg.CheckpointStore = store
	if _, err := Run[wint](cfg, prog); err != nil {
		t.Fatal(err)
	}
	prog2, cfg2 := newEcho(60, 6, 2) // different worker count
	cfg2.ResumeFrom = store
	if _, err := Run[wint](cfg2, prog2); err == nil {
		t.Fatal("resume with mismatched worker count should fail")
	}
}

// --- In-run recovery and retry -------------------------------------------

func TestInRunRecoveryDeterministicFaults(t *testing.T) {
	clean := func() *RunStats {
		prog, cfg := newEcho(60, 5, 3)
		stats, err := Run[wint](cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}()

	// Exactly 3 injected faults at step 1; each one triggers a checkpoint
	// restore, and the 4th attempt goes through.
	store := NewMemCheckpointStore()
	prog, cfg := newEcho(60, 5, 3)
	cfg.Exchange = NewFaultyExchangeFactory(nil, FaultConfig{Seed: 2, ErrorRate: 1, FromStep: 1, MaxFaults: 3})
	cfg.CheckpointEvery = 1
	cfg.CheckpointStore = store
	cfg.MaxRecoveries = 10
	stats, err := Run[wint](cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Recoveries != 3 {
		t.Errorf("Recoveries = %d, want 3", stats.Recoveries)
	}
	if stats.Counters["delivered"] != clean.Counters["delivered"] {
		t.Errorf("delivered = %d, want %d", stats.Counters["delivered"], clean.Counters["delivered"])
	}
	if stats.MessagesTotal != clean.MessagesTotal {
		t.Errorf("MessagesTotal = %d, want %d", stats.MessagesTotal, clean.MessagesTotal)
	}
	if !reflect.DeepEqual(stats.PerStepMessages, clean.PerStepMessages) {
		t.Errorf("PerStepMessages = %v, want %v", stats.PerStepMessages, clean.PerStepMessages)
	}
}

func TestInRunRecoveryStochasticFaults(t *testing.T) {
	clean := func() *RunStats {
		prog, cfg := newEcho(80, 6, 4)
		stats, err := Run[wint](cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}()

	// Unlimited seeded faults (errors + drops) recovered by restore alone:
	// the schedule is deterministic, so this either always passes or never.
	store := NewMemCheckpointStore()
	prog, cfg := newEcho(80, 6, 4)
	cfg.Exchange = NewFaultyExchangeFactory(nil, FaultConfig{Seed: 7, ErrorRate: 0.3, DropRate: 0.2, FromStep: 1})
	cfg.CheckpointEvery = 1
	cfg.CheckpointStore = store
	cfg.MaxRecoveries = 200
	stats, err := Run[wint](cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Counters["delivered"] != clean.Counters["delivered"] {
		t.Errorf("delivered = %d, want %d", stats.Counters["delivered"], clean.Counters["delivered"])
	}
}

func TestRetryRecoversTransientFaults(t *testing.T) {
	clean := func() *RunStats {
		prog, cfg := newEcho(60, 5, 3)
		stats, err := Run[wint](cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}()

	prog, cfg := newEcho(60, 5, 3)
	cfg.Exchange = NewFaultyExchangeFactory(nil, FaultConfig{Seed: 3, ErrorRate: 0.4, DropRate: 0.1})
	cfg.Retry = RetryPolicy{MaxAttempts: 12, BaseBackoff: 100 * time.Microsecond, MaxBackoff: time.Millisecond}
	stats, err := Run[wint](cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Recoveries != 0 {
		t.Errorf("Recoveries = %d, want 0 (retry alone must absorb the faults)", stats.Recoveries)
	}
	if stats.Counters["delivered"] != clean.Counters["delivered"] {
		t.Errorf("delivered = %d, want %d", stats.Counters["delivered"], clean.Counters["delivered"])
	}
	if !reflect.DeepEqual(stats.PerStepMessages, clean.PerStepMessages) {
		t.Errorf("PerStepMessages = %v, want %v", stats.PerStepMessages, clean.PerStepMessages)
	}
}

// TestCounterSlots pins what RunStats.Counters promises now that counters are
// slots: a key is present iff its total is non-zero (a zero delta creates
// none), and a counter whose first use comes after a snapshot was written —
// so the snapshot has no key for it — resumes to the clean run's totals.
func TestCounterSlots(t *testing.T) {
	late := CounterID("late")
	newProg := func() *funcProgram[int] {
		return &funcProgram[int]{
			init: func(ctx *Context[int]) {
				ctx.AddCounter("never", 0)
				for v := 0; v < 20; v++ {
					ctx.Send(graph.VertexID(v), 5)
				}
			},
			process: func(ctx *Context[int], env Envelope[int]) {
				ctx.AddCounter("early", 1)
				if ctx.Step() >= 3 {
					ctx.Add(late, 2)
				}
				if env.Msg > 0 {
					ctx.Send(env.Dest+1, env.Msg-1)
				}
			},
		}
	}
	cfg := Config{Workers: 3, Owner: func(v graph.VertexID) int { return int(v) % 3 }}
	clean, err := Run[int](cfg, newProg())
	if err != nil {
		t.Fatal(err)
	}
	if want := map[string]int64{"early": 360, "late": 480}; !reflect.DeepEqual(clean.Counters, want) {
		t.Fatalf("clean counters = %v, want %v (and no key for the zero delta)", clean.Counters, want)
	}

	store := NewMemCheckpointStore()
	faulty := cfg
	faulty.Exchange = NewFaultyExchangeFactory(nil, FaultConfig{Seed: 1, ErrorRate: 1, FromStep: 3, MaxFaults: 1})
	faulty.CheckpointEvery, faulty.CheckpointStore = 1, store
	if _, err := Run[int](faulty, newProg()); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("faulty run err = %v, want ErrInjectedFault", err)
	}
	snap, err := loadSnapshot[int](store)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := snap.Stats.Counters["late"]; ok || snap.Step != 3 {
		t.Fatalf("snapshot at step %d has counters %v: want step 3, before the first use of late", snap.Step, snap.Stats.Counters)
	}
	resumed := cfg
	resumed.ResumeFrom = store
	got, err := Run[int](resumed, newProg())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Counters, clean.Counters) {
		t.Errorf("resumed counters = %v, want %v", got.Counters, clean.Counters)
	}
}
