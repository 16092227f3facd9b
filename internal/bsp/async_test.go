package bsp

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"psgl/internal/graph"
	"psgl/internal/obs"
)

// --- credit/ack termination detector units ---

func TestCreditDetectorIdleButCreditOutstanding(t *testing.T) {
	// Every worker parked and idle, but a frame is still in flight: the run
	// must NOT be declared finished — the frame will wake its destination.
	det := newCreditDetector(3)
	for w := 0; w < 3; w++ {
		det.setIdle(w, true)
	}
	det.frameSent(1)
	if det.quiescent() {
		t.Fatal("quiescent with outstanding credit: the in-flight frame was forgotten")
	}
	det.enqueued(2)
	det.frameAcked(1)
	if det.quiescent() {
		t.Fatal("quiescent while the delivered frame's destination is not idle")
	}
	det.setIdle(2, true)
	if !det.quiescent() {
		t.Fatal("not quiescent after the frame was delivered and its destination drained")
	}
}

func TestCreditDetectorAckReordering(t *testing.T) {
	// Acks arrive in a different order than the sends (the TCP reader
	// goroutines have no cross-conn ordering). Per-sender credit balances
	// must still converge to zero, and quiescence must wait for the last ack.
	det := newCreditDetector(3)
	det.frameSent(0)
	det.frameSent(0)
	det.frameSent(2)
	for w := 0; w < 3; w++ {
		det.setIdle(w, true)
	}
	// Worker 2's frame (sent last) is acked first.
	det.enqueued(1)
	det.frameAcked(2)
	det.enqueued(1)
	det.frameAcked(0)
	det.setIdle(1, true)
	if det.quiescent() {
		t.Fatal("quiescent with one of worker 0's frames still outstanding")
	}
	det.enqueued(1)
	det.frameAcked(0)
	det.setIdle(1, true)
	if !det.quiescent() {
		t.Fatal("not quiescent after every ack arrived (reordered)")
	}
}

func TestCreditDetectorLateFrameAfterLocalQuiescence(t *testing.T) {
	// The nasty interleaving: everything looks idle, the scan starts, and a
	// frame lands mid-scan at a worker that processes it and re-idles before
	// the idle check reaches it. Credit is balanced, every idle flag reads
	// true — only the activity epoch betrays the late frame.
	det := newCreditDetector(2)
	det.setIdle(0, true)
	det.setIdle(1, true)
	injected := false
	det.onScan = func() {
		if !injected {
			injected = true
			det.enqueued(1)
			det.setIdle(1, true) // processed so fast it's idle again already
		}
	}
	if det.quiescent() {
		t.Fatal("late frame slipped past the verdict: activity epoch not honored")
	}
	if !det.quiescent() {
		t.Fatal("second scan (no new activity) should be quiescent")
	}
}

// newTestRun builds a run whose transport the test sets; seeded says no
// worker runs Init, as in a resumed run.
func newTestRun[M any](cfg Config, prog Program[M], seeded bool) *run[M] {
	r := newRun(cfg, prog)
	r.restored = seeded
	return r
}

func TestAsyncAckAlwaysNudgesCoordinator(t *testing.T) {
	// Regression: ack() used to nudge the coordinator only when a checkpoint
	// was due or a pause was in progress. The final ack — the one that brings
	// outstanding credit to zero — may be the only event left to wake
	// coordinate() for its last quiescence scan, so it must always nudge.
	prog := &funcProgram[int]{
		init:    func(*Context[int]) {},
		process: func(*Context[int], Envelope[int]) {},
	}
	a := newTestRun[int](Config{Workers: 2, AsyncExchange: true}, prog, true)
	a.det.frameSent(0)
	select {
	case <-a.nudge: // drain any pending nudge, as coordinate() would
	default:
	}
	a.ack(0)
	select {
	case <-a.nudge:
	default:
		t.Fatal("ack released the last credit without nudging the coordinator")
	}
}

// delayedAckTransport delivers frames synchronously but releases each ack
// from a separate goroutine only once the destination worker has drained its
// queue and parked idle again — the TCP-reader interleaving where the final
// ack lands after the destination's idle-nudge was already consumed.
type delayedAckTransport[M any] struct {
	h   hooks[M]
	det *creditDetector
}

func (t delayedAckTransport[M]) Send(_ context.Context, src, dst, ord int, batch [][]Envelope[M]) (bool, error) {
	t.h.deliver(src, dst, ord, Inbox[M]{Chunks: batch})
	go func() {
		for !t.det.idle[dst].Load() {
			time.Sleep(100 * time.Microsecond)
		}
		// Give the coordinator time to consume the idle-nudges and block on a
		// non-quiescent verdict (credit still outstanding) before the ack.
		time.Sleep(2 * time.Millisecond)
		t.h.ack(src)
	}()
	return false, nil
}

func (t delayedAckTransport[M]) Close() error { return nil }

func TestDelayedAckStillTerminates(t *testing.T) {
	// Regression for the lost-wakeup hang: every worker parks and nudges,
	// the coordinator scans (credit still outstanding) and blocks, and only
	// then does the transport ack the last frame. The run must still detect
	// quiescence — in either policy — instead of hanging forever on the
	// nudge channel.
	prog := &funcProgram[int]{
		init: func(ctx *Context[int]) {
			if ctx.Worker() == 0 {
				ctx.Send(100, 1)
			}
		},
		process: func(*Context[int], Envelope[int]) {},
	}
	for _, async := range []bool{false, true} {
		cfg := Config{
			Workers: 2,
			Owner: func(v graph.VertexID) int {
				if v < 100 {
					return 0
				}
				return 1
			},
			AsyncExchange: async,
		}
		a := newTestRun[int](cfg, prog, false)
		a.transport = delayedAckTransport[int]{h: a.hooks(), det: a.det}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err := a.drive(ctx)
		cancel()
		if err != nil {
			t.Fatalf("async=%v: delayed-ack attempt did not terminate cleanly: %v", async, err)
		}
	}
}

// --- async plane vs strict mode ---

func runEchoMode(t *testing.T, factory ExchangeFactory, async bool) *RunStats {
	t.Helper()
	prog, cfg := newEcho(100, 5, 3)
	cfg.Exchange = factory
	cfg.AsyncExchange = async
	stats, err := Run[wint](cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

func TestAsyncEchoMatchesStrict(t *testing.T) {
	strict := runEchoMode(t, nil, false)
	async := runEchoMode(t, nil, true)
	if strict.Counters["delivered"] != async.Counters["delivered"] {
		t.Fatalf("delivered differ: strict=%d async=%d",
			strict.Counters["delivered"], async.Counters["delivered"])
	}
	if strict.MessagesTotal != async.MessagesTotal {
		t.Fatalf("message totals differ: strict=%d async=%d",
			strict.MessagesTotal, async.MessagesTotal)
	}
	if len(async.PerStepWorkerTime) != async.Supersteps {
		t.Fatalf("async epoch rows %d != Supersteps %d",
			len(async.PerStepWorkerTime), async.Supersteps)
	}
	var wm int64
	for _, m := range async.WorkerMessages {
		wm += m
	}
	if wm != async.MessagesTotal {
		t.Fatalf("async worker message sum %d != total %d", wm, async.MessagesTotal)
	}
}

func TestAsyncTCPEchoMatchesStrict(t *testing.T) {
	strict := runEchoMode(t, nil, false)
	async := runEchoMode(t, NewTCPExchangeFactory(), true)
	if strict.Counters["delivered"] != async.Counters["delivered"] {
		t.Fatalf("delivered differ: strict=%d asyncTCP=%d",
			strict.Counters["delivered"], async.Counters["delivered"])
	}
	if strict.MessagesTotal != async.MessagesTotal {
		t.Fatalf("message totals differ: strict=%d asyncTCP=%d",
			strict.MessagesTotal, async.MessagesTotal)
	}
}

func TestAsyncSmallFlushMatchesStrict(t *testing.T) {
	// Aggressive pipelining (flush every message) must not change counts.
	strict := runEchoMode(t, nil, false)
	prog, cfg := newEcho(100, 5, 3)
	cfg.AsyncExchange = true
	cfg.asyncFlushEvery = 1
	async, err := Run[wint](cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if strict.Counters["delivered"] != async.Counters["delivered"] {
		t.Fatalf("delivered differ: strict=%d async(flush=1)=%d",
			strict.Counters["delivered"], async.Counters["delivered"])
	}
}

func TestAsyncEmptyProgramTerminates(t *testing.T) {
	prog := &funcProgram[int]{
		init:    func(*Context[int]) {},
		process: func(*Context[int], Envelope[int]) {},
	}
	cfg := Config{Workers: 3, Owner: func(graph.VertexID) int { return 0 }, AsyncExchange: true}
	stats, err := Run[int](cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MessagesTotal != 0 {
		t.Fatalf("empty async program: msgs=%d", stats.MessagesTotal)
	}
}

// --- abort, cancellation, runaway ---

func TestAsyncAbortStopsRun(t *testing.T) {
	boom := errors.New("boom")
	prog := &funcProgram[int]{
		init: func(ctx *Context[int]) { ctx.Send(0, 1) },
		process: func(ctx *Context[int], env Envelope[int]) {
			ctx.Abort(boom)
			ctx.Send(0, 1) // keeps producing; abort must still win
		},
	}
	cfg := Config{Workers: 2, Owner: func(graph.VertexID) int { return 0 }, AsyncExchange: true}
	_, err := Run[int](cfg, prog)
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted", err)
	}
}

func TestAsyncCancellation(t *testing.T) {
	// A self-perpetuating program: cancellation is the only way out.
	prog := &funcProgram[int]{
		init: func(ctx *Context[int]) { ctx.Send(0, 1) },
		process: func(ctx *Context[int], env Envelope[int]) {
			ctx.Send(0, 1)
		},
	}
	cfg := Config{Workers: 2, Owner: func(graph.VertexID) int { return 0 }, AsyncExchange: true}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	done := make(chan error, 1)
	go func() {
		_, err := RunContext[int](ctx, cfg, prog)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled in the chain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("async run did not stop after cancellation")
	}
}

// --- queue order ---

func TestPipelinedOwnWorkGoesDepthFirst(t *testing.T) {
	// One worker, 1000 two-level chains. Pipelined, the worker takes what it
	// sent itself back one chunk (at most 64 envelopes) at a time, newest
	// first, so the first leaf is reached after one chunk per level; strict
	// BSP processes every root and every middle first.
	const roots, depth = 1000, 2
	for _, async := range []bool{false, true} {
		var order []int // depths in processing order; one worker, so no lock
		prog := &funcProgram[int]{
			init: func(ctx *Context[int]) {
				for i := 0; i < roots; i++ {
					ctx.Send(0, 0)
				}
			},
			process: func(ctx *Context[int], env Envelope[int]) {
				order = append(order, env.Msg)
				if env.Msg < depth {
					ctx.Send(0, env.Msg+1)
				}
			},
		}
		cfg := Config{Workers: 1, Owner: func(graph.VertexID) int { return 0 }, AsyncExchange: async}
		if _, err := Run[int](cfg, prog); err != nil {
			t.Fatalf("async=%v: %v", async, err)
		}
		if len(order) != roots*(depth+1) {
			t.Fatalf("async=%v: processed %d messages, want %d", async, len(order), roots*(depth+1))
		}
		first := slices.Index(order, depth)
		if want := depth * roots; !async && first != want {
			t.Fatalf("strict: first leaf at %d, want %d (breadth first)", first, want)
		}
		if limit := depth * 64; async && first > limit {
			t.Fatalf("pipelined: first leaf at %d, want <= %d (one chunk per level)", first, limit)
		}
	}
}

// --- checkpoints and resume ---

func TestPauseBeforeInitKeepsEverySeed(t *testing.T) {
	// A checkpoint pause can be induced while some worker has not yet run
	// Init (its peers' frames are what made the checkpoint due). The
	// snapshot taken there is what a resumed run starts from, and a resumed
	// run never seeds, so it must hold every worker's seeds. Setting the
	// pause before any worker starts forces that interleaving on all of them.
	const k, seeds = 3, 4
	prog := &funcProgram[int]{
		init: func(ctx *Context[int]) {
			for i := 0; i < seeds; i++ {
				ctx.Send(graph.VertexID(ctx.Worker()), 0)
			}
		},
		process: func(ctx *Context[int], _ Envelope[int]) { ctx.AddCounter("processed", 1) },
	}
	store := NewMemCheckpointStore()
	cfg := Config{
		Workers:         k,
		Owner:           func(v graph.VertexID) int { return int(v) % k },
		AsyncExchange:   true,
		CheckpointEvery: 1,
		CheckpointStore: store,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	a := newTestRun[int](cfg, prog, false)
	tr, err := newTransport(ctx, nil, &a.cfg, a.hooks())
	if err != nil {
		t.Fatal(err)
	}
	a.transport = tr
	a.pause.Store(true)
	if err := a.drive(ctx); err != nil {
		t.Fatal(err)
	}
	if got := a.stats.Counters["processed"]; got != k*seeds {
		t.Fatalf("processed %d seeds, want %d", got, k*seeds)
	}
	snap, err := loadSnapshot[int](store)
	if err != nil {
		t.Fatalf("no snapshot taken at the pause: %v", err)
	}
	queued := 0
	for _, in := range snap.Inboxes {
		queued += len(in)
	}
	if queued != k*seeds {
		t.Fatalf("the pause snapshot holds %d seeds, want %d", queued, k*seeds)
	}
	resume := cfg
	resume.ResumeFrom, resume.CheckpointStore = store, NewMemCheckpointStore()
	stats, err := Run[int](resume, prog)
	if err != nil {
		t.Fatal(err)
	}
	if got := stats.Counters["processed"]; got != k*seeds {
		t.Fatalf("resumed from the pause snapshot: processed %d, want %d", got, k*seeds)
	}
}

func TestAsyncCheckpointAndResume(t *testing.T) {
	// A run checkpointed at quiescence points must be resumable by a fresh
	// run, and the resumed stats must equal a clean run's (exactly-once).
	strict := runEchoMode(t, nil, false)
	store := NewMemCheckpointStore()
	prog, cfg := newEcho(100, 5, 3)
	cfg.AsyncExchange = true
	cfg.asyncFlushEvery = 8 // more frames, so quiescence checkpoints trigger
	cfg.CheckpointEvery = 1
	cfg.CheckpointStore = store
	first, err := Run[wint](cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if first.Counters["delivered"] != strict.Counters["delivered"] {
		t.Fatalf("checkpointed async run drifted: %d vs %d",
			first.Counters["delivered"], strict.Counters["delivered"])
	}

	prog2, cfg2 := newEcho(100, 5, 3)
	cfg2.AsyncExchange = true
	cfg2.ResumeFrom = store
	resumed, err := Run[wint](cfg2, prog2)
	if err != nil {
		t.Fatal(err)
	}
	// The final snapshot was taken at some quiescence point; resuming from it
	// replays only the tail, and the restored stats keep the prefix, so the
	// total must match a clean run exactly when the store holds a snapshot.
	if resumed.Counters["delivered"] != strict.Counters["delivered"] {
		t.Fatalf("resumed async run drifted: %d vs %d",
			resumed.Counters["delivered"], strict.Counters["delivered"])
	}
}

func TestAsyncObserverCounters(t *testing.T) {
	o := obs.New(nil)
	prog, cfg := newEcho(100, 5, 3)
	cfg.AsyncExchange = true
	cfg.Observer = o
	if _, err := Run[wint](cfg, prog); err != nil {
		t.Fatal(err)
	}
	s := o.Snapshot()
	if s.CreditRounds == 0 {
		t.Fatal("async run recorded no credit rounds")
	}
	if s.FramesInFlightPeak < 0 {
		t.Fatalf("frames-in-flight peak negative: %d", s.FramesInFlightPeak)
	}
	if !s.Ended {
		t.Fatal("observer never saw RunEnded")
	}
	if s.Counters["delivered"] != 600 {
		t.Fatalf("observer logical counters = %v, want delivered=600", s.Counters)
	}
}
