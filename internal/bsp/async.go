package bsp

// Async message plane — the "kill the barrier" mode. Strict BSP (bsp.go)
// leaves every worker idle at each barrier while the slowest peer finishes
// expanding; Chen et al. (pipelined adaptive-group communication) and Ren et
// al. (shipping partial instances eagerly) both observe that overlapping
// expansion with communication is the dominant remaining speed lever. With
// Config.AsyncExchange set, workers flush fixed-size frame batches as they
// are produced and receivers start expanding frames the moment they arrive;
// the global barrier degrades to a credit/ack termination detector: each
// worker tracks frames sent vs frames acked, and the run completes when all
// workers are idle with zero outstanding credit.
//
// Correctness rests on two properties the strict engine already pins with
// tests: every message is processed exactly once (queues are drained, frames
// are acked only after enqueue), and the program's final counts are
// independent of processing order (the strategy-invariance suite proves the
// engine's backtracking enumeration reaches each embedding exactly once
// regardless of expansion order). Async mode therefore produces bit-identical
// embedding counts to strict mode; the differential suites assert exactly
// that across local and TCP transports.
//
// Fault tolerance moves from barriers to quiescence points: when a
// checkpoint is due the coordinator pauses the plane (workers flush partial
// batches and park, in-flight credit drains to zero), snapshots the queues
// plus merged stats plus program state with the same sealed snapshot format
// as strict mode, and resumes. A failed frame send (after the retry budget)
// tears the attempt down, and the shell both loops run in (bsp.go) restores
// the latest snapshot — or restarts from scratch — bounded by MaxRecoveries.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// defaultAsyncFlushEvery is the frame granularity of the async plane: a
// worker flushes a destination batch once it holds this many messages (and
// flushes all partial batches before going idle).
const defaultAsyncFlushEvery = 256

// asyncFramesPerStep converts MaxSupersteps into the async runaway bound:
// a worker may flush at most MaxSupersteps×asyncFramesPerStep frames. Async
// mode has no superstep to count, so the bound is necessarily coarser; it
// exists to turn a ping-pong program into an error instead of a hang.
const asyncFramesPerStep = 256

// creditDetector is the termination detector that replaces the barrier.
// Soundness depends on strict event ordering, enforced by the attempt and
// the transport contract (deliver, then ack):
//
//	sender:    outstanding[src]++ happens BEFORE transport.Send
//	deliverer: enqueue → idle[dst]=false → activity++ (all under the
//	           destination's queue lock), and only THEN ack (outstanding--)
//
// so a frame is always covered by either outstanding credit (in flight) or a
// non-idle destination (enqueued). quiescent() reads the activity epoch twice
// around its scan; any delivery racing the scan bumps the epoch and voids the
// verdict.
type creditDetector struct {
	outstanding []atomic.Int64 // per-worker frames sent and not yet enqueued remotely
	inFlight    atomic.Int64   // global gauge feeding the frames-in-flight peak counter
	idle        []atomic.Bool  // worker parked with an empty queue and nothing buffered
	activity    atomic.Uint64  // bumped on every enqueue; double-read by quiescent
	// onScan, when non-nil, runs between the first epoch read and the scan —
	// a test seam for racing a late frame against the verdict.
	onScan func()
}

func newCreditDetector(k int) *creditDetector {
	return &creditDetector{
		outstanding: make([]atomic.Int64, k),
		idle:        make([]atomic.Bool, k),
	}
}

// frameSent charges one credit to src and returns the global in-flight count
// after the send, for the peak gauge.
func (d *creditDetector) frameSent(src int) int64 {
	d.outstanding[src].Add(1)
	return d.inFlight.Add(1)
}

// frameAcked releases src's credit once the frame is enqueued at its
// destination.
func (d *creditDetector) frameAcked(src int) {
	d.outstanding[src].Add(-1)
	d.inFlight.Add(-1)
}

// enqueued records a frame landing in dst's queue. Callers must hold dst's
// queue lock, so the idle flag can never read true while the queue is
// non-empty.
func (d *creditDetector) enqueued(dst int) {
	d.idle[dst].Store(false)
	d.activity.Add(1)
}

func (d *creditDetector) setIdle(w int, v bool) { d.idle[w].Store(v) }

func (d *creditDetector) outstandingTotal() int64 {
	var total int64
	for i := range d.outstanding {
		total += d.outstanding[i].Load()
	}
	return total
}

// quiescent reports global termination: every worker idle and zero credit
// outstanding, with the activity epoch unchanged across the scan.
func (d *creditDetector) quiescent() bool {
	e1 := d.activity.Load()
	if d.onScan != nil {
		d.onScan()
	}
	for i := range d.outstanding {
		if d.outstanding[i].Load() != 0 {
			return false
		}
	}
	for i := range d.idle {
		if !d.idle[i].Load() {
			return false
		}
	}
	return d.activity.Load() == e1
}

// asyncWorker is one worker's queue and delta accumulators. Everything here
// is guarded by mu; the deltas are merged into RunStats (and reset) at
// quiescence epochs so checkpoint rollback keeps them exactly-once.
type asyncWorker[M any] struct {
	id   int
	mu   sync.Mutex
	cond *sync.Cond

	queue  Inbox[M]
	paused bool

	// flushSeq counts every frame this worker flushed, self-deliveries
	// included — the runaway bound. sendSeq numbers only the frames that hit
	// the transport: the fault-schedule and retry-accounting axis, so a
	// StepFault at step S targets the worker's S-th *wire* frame and
	// schedules written against low steps fire regardless of how many
	// self-flushes preceded them. Both are touched only by the worker's own
	// goroutine. flushSeq is int64 so the runaway bound comparison stays
	// exact on 32-bit platforms.
	flushSeq int64
	sendSeq  int

	procTime  time.Duration
	processed int64
	produced  int64
	counters  map[string]int64
}

// asyncAttempt is one incarnation of the async plane: fresh queues, fresh
// detector, fresh transport. Recovery discards the whole attempt and builds
// a new one from the latest snapshot, so late deliveries from a dying
// transport can only touch the dead attempt's queues.
type asyncAttempt[M any] struct {
	r          *run[M] // program, stats and abort flag; seeded iff r.restored
	cfg        *Config
	gprog      GroupProgram[M]
	k          int
	flushEvery int
	maxFrames  int64

	det     *creditDetector
	workers []*asyncWorker[M]

	transport transport[M]
	runCtx    context.Context

	nudge chan struct{}
	fatal chan error
	halt  atomic.Bool
	pause atomic.Bool
	wg    sync.WaitGroup

	// epochNum is the logical "step" workers stamp on their contexts: 0 is
	// Init, and each checkpoint pause opens a new epoch. Per-epoch stat rows
	// keep SimulatedMakespan meaningful (one row per quiescence interval).
	epochNum    atomic.Int64
	ackedFrames atomic.Int64
	lastCkAck   int64 // coordinator-only
}

func newAsyncAttempt[M any](r *run[M]) *asyncAttempt[M] {
	cfg, k := &r.cfg, r.cfg.Workers
	fe := cfg.asyncFlushEvery
	if fe <= 0 {
		fe = defaultAsyncFlushEvery
	}
	// Clamp and multiply in int64: the untyped 1<<40 constant (and the
	// product) would overflow int on 32-bit platforms.
	maxFrames := min(int64(r.maxSteps), 1<<40) * asyncFramesPerStep
	a := &asyncAttempt[M]{
		r:          r,
		cfg:        cfg,
		k:          k,
		flushEvery: fe,
		maxFrames:  maxFrames,
		det:        newCreditDetector(k),
		workers:    make([]*asyncWorker[M], k),
		nudge:      make(chan struct{}, 1),
		// A few slots so concurrent failures are not all lost to the
		// non-blocking send; only the first one read matters.
		fatal: make(chan error, 8),
	}
	a.gprog, _ = any(r.prog).(GroupProgram[M])
	a.epochNum.Store(int64(r.stats.Supersteps) + 1)
	for w := 0; w < k; w++ {
		wk := &asyncWorker[M]{id: w, counters: map[string]int64{}}
		wk.cond = sync.NewCond(&wk.mu)
		if w < len(r.inboxes) {
			wk.queue = r.inboxes[w]
		}
		a.workers[w] = wk
	}
	return a
}

func (a *asyncAttempt[M]) hooks() hooks[M] {
	return hooks[M]{deliver: a.deliver, ack: a.ack, fatal: a.fatalErr}
}

// deliver appends what one Send carried to dst's queue (copying the
// envelopes: senders reuse their buffers). Ordering is load-bearing: append,
// clear the idle flag, and bump the activity epoch all under the queue lock,
// so the detector can never observe an idle worker with a non-empty queue.
func (a *asyncAttempt[M]) deliver(_, dst, _ int, in Inbox[M]) {
	if a.halt.Load() {
		// The attempt is tearing down; the frame is covered by the snapshot
		// (or full restart) the recovery path restores from.
		return
	}
	wk := a.workers[dst]
	wk.mu.Lock()
	busy := !a.det.idle[dst].Load() && !wk.queue.empty()
	wk.queue.Envs = append(wk.queue.Envs, in.Envs...)
	wk.queue.Frames = append(wk.queue.Frames, in.Frames...)
	a.det.enqueued(dst)
	wk.cond.Signal()
	wk.mu.Unlock()
	if busy {
		// The destination was already working through a backlog when this
		// frame landed: expansion is overlapping communication.
		a.cfg.Observer.AddEarlyExpansion()
	}
}

// ack releases src's credit once a frame it sent has been enqueued at its
// destination. Transports must call it strictly after deliver for the same
// frame — that ordering is what makes zero outstanding credit mean "every
// sent frame is in a queue". The nudge is unconditional: over the TCP
// transport acks arrive from reader goroutines, so the final ack — the one
// that brings outstanding credit to zero — can land after the destination
// worker's idle-nudge was already consumed, and without a fresh nudge here
// the coordinator would block on the nudge channel with the plane fully
// quiescent.
func (a *asyncAttempt[M]) ack(src int) {
	a.det.frameAcked(src)
	a.ackedFrames.Add(1)
	a.nudgeCoordinator()
}

func (a *asyncAttempt[M]) nudgeCoordinator() { trySend(a.nudge, struct{}{}) }

// fail ends the attempt with err (the first one read wins).
func (a *asyncAttempt[M]) fail(err error) { trySend(a.fatal, err) }

// fatalErr reports a transport failure — a frame out of retries, a reader
// that lost its connection: the kind of failure the shell may recover from.
func (a *asyncAttempt[M]) fatalErr(err error) {
	a.fail(&attemptFailure{step: int(a.epochNum.Load()), cause: err})
}

// runAttempt drives one attempt to a terminal condition: quiescence (nil),
// abort, cancellation, or a fatal transport error (recoverable by the
// shell). Workers are always joined and the transport closed before it
// returns, and the final delta merge keeps RunStats consistent either way.
func (a *asyncAttempt[M]) runAttempt(ctx context.Context) error {
	a.runCtx = ctx
	for w := 0; w < a.k; w++ {
		a.wg.Add(1)
		go a.workerLoop(w)
	}
	err := a.coordinate(ctx)
	a.halt.Store(true)
	a.broadcastAll()
	a.wg.Wait()
	a.transport.Close()
	a.mergeDeltas()
	return err
}

func (a *asyncAttempt[M]) coordinate(ctx context.Context) error {
	for {
		if p := a.r.abort.Load(); p != nil {
			a.cfg.Observer.Aborted(int(a.epochNum.Load()), *p)
			return fmt.Errorf("%w: %v", ErrAborted, *p)
		}
		a.cfg.Observer.AddCreditRound()
		if a.det.quiescent() {
			return nil
		}
		// One barrier moves about K frames per worker, so CheckpointEvery×K
		// acked frames is the async stand-in for "every Nth barrier".
		if ck := int64(a.cfg.CheckpointEvery * a.k); ck > 0 && a.ackedFrames.Load()-a.lastCkAck >= ck {
			if err := a.checkpointPause(ctx); err != nil {
				return err
			}
			continue
		}
		if err := a.wait(ctx); err != nil {
			return err
		}
	}
}

// wait parks the coordinator until a worker or the transport nudges it, and
// returns the error that ends the attempt if one arrived instead.
func (a *asyncAttempt[M]) wait(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return fmt.Errorf("bsp: run canceled at step %d: %w", int(a.epochNum.Load()), ctx.Err())
	case err := <-a.fatal:
		return err
	case <-a.nudge:
		return nil
	}
}

// checkpointPause quiesces the plane and snapshots it: workers flush partial
// batches and park, in-flight credit drains to zero, the queues plus merged
// stats plus program state are sealed into the checkpoint store, and the
// plane resumes. This is the async analogue of the strict barrier snapshot —
// an induced quiescence point instead of a superstep boundary.
func (a *asyncAttempt[M]) checkpointPause(ctx context.Context) error {
	a.pause.Store(true)
	a.broadcastAll()
	for !(a.allPaused() && a.det.outstandingTotal() == 0) {
		if a.r.abort.Load() != nil {
			// Resume and let the coordinator turn the abort into ErrAborted.
			a.resumeAll()
			return nil
		}
		if err := a.wait(ctx); err != nil {
			a.resumeAll()
			return err
		}
	}
	a.mergeDeltas()
	// Workers are parked and nothing is in flight, so the queues can be
	// encoded in place; still-compressed frames stay compressed.
	inboxes := make([]Inbox[M], a.k)
	for w, wk := range a.workers {
		wk.mu.Lock()
		inboxes[w] = wk.queue
		wk.mu.Unlock()
	}
	ckStart := time.Now()
	nbytes, err := saveSnapshot[M](a.cfg.CheckpointStore, a.r.stats.Supersteps, inboxes, a.r.stats, a.r.snapper)
	if err != nil {
		a.resumeAll()
		return fmt.Errorf("bsp: checkpoint at quiescence point %d: %w", a.r.stats.Supersteps, err)
	}
	a.cfg.Observer.CheckpointSaved(a.r.stats.Supersteps, nbytes, time.Since(ckStart))
	a.lastCkAck = a.ackedFrames.Load()
	a.epochNum.Add(1)
	a.resumeAll()
	return nil
}

func (a *asyncAttempt[M]) allPaused() bool {
	for _, wk := range a.workers {
		wk.mu.Lock()
		p := wk.paused
		wk.mu.Unlock()
		if !p {
			return false
		}
	}
	return true
}

func (a *asyncAttempt[M]) broadcastAll() {
	for _, wk := range a.workers {
		wk.mu.Lock()
		wk.cond.Broadcast()
		wk.mu.Unlock()
	}
}

func (a *asyncAttempt[M]) resumeAll() {
	a.pause.Store(false)
	a.broadcastAll()
}

// mergeDeltas folds every worker's accumulated deltas into RunStats as one
// epoch row and resets them. Called at checkpoint pauses (workers parked)
// and at attempt teardown (workers joined); both give the coordinator the
// lock-ordered visibility it needs.
func (a *asyncAttempt[M]) mergeDeltas() {
	row := make([]time.Duration, a.k)
	var produced, processed int64
	dirty := false
	for w, wk := range a.workers {
		wk.mu.Lock()
		row[w] = wk.procTime
		if wk.procTime != 0 || wk.processed != 0 || wk.produced != 0 || len(wk.counters) > 0 {
			dirty = true
		}
		a.r.stats.WorkerMessages[w] += wk.processed
		produced += wk.produced
		processed += wk.processed
		for name, v := range wk.counters {
			a.r.stats.Counters[name] += v
			delete(wk.counters, name)
		}
		wk.procTime, wk.processed, wk.produced = 0, 0, 0
		wk.mu.Unlock()
	}
	if !dirty {
		return
	}
	a.r.stats.addStep(row, produced)
	a.cfg.Observer.StepComputed(int(a.epochNum.Load()), row, processed, produced)
}

// noteBurst moves the context's per-burst tallies into the worker's guarded
// deltas.
func (a *asyncAttempt[M]) noteBurst(wk *asyncWorker[M], wctx *Context[M], dt time.Duration, processed int64) {
	wk.mu.Lock()
	wk.procTime += dt
	wk.processed += processed
	wk.produced += wctx.sent
	for name, v := range wctx.local {
		wk.counters[name] += v
		delete(wctx.local, name)
	}
	wk.mu.Unlock()
	wctx.sent = 0
}

func outDirty[M any](wctx *Context[M]) bool {
	for _, b := range wctx.out {
		if len(b) > 0 {
			return true
		}
	}
	return false
}

// bumpSeq advances the worker's flush sequence and enforces the runaway
// bound.
func (a *asyncAttempt[M]) bumpSeq(wk *asyncWorker[M]) bool {
	wk.flushSeq++
	if wk.flushSeq > a.maxFrames {
		a.fail(fmt.Errorf("bsp: worker %d exceeded %d flushed frames (runaway async program; raise MaxSupersteps)", wk.id, a.maxFrames))
		return false
	}
	return true
}

// flushOut ships the context's buffered batches: the self batch straight
// into the worker's own queue (no transport, no credit — the worker re-checks
// its queue before idling), remote batches through the transport under the
// retry policy, each charged to the credit ledger before the send. With
// all=false only batches that reached flushEvery go out; all=true drains
// everything (pre-idle, pre-pause, post-Init).
func (a *asyncAttempt[M]) flushOut(wk *asyncWorker[M], wctx *Context[M], all bool) bool {
	w := wk.id
	for dst, batch := range wctx.out {
		if len(batch) == 0 || (!all && len(batch) < a.flushEvery) {
			continue
		}
		if !a.bumpSeq(wk) {
			return false
		}
		if dst == w {
			wk.mu.Lock()
			wk.queue.Envs = append(wk.queue.Envs, batch...)
			wk.mu.Unlock()
		} else {
			wk.sendSeq++
			seq := wk.sendSeq
			a.cfg.Observer.ObserveFramesInFlight(a.det.frameSent(w))
			if err := sendFrame(a.runCtx, a.transport, a.cfg, w, dst, seq, batch); err != nil {
				// Leave the credit outstanding: the lost frame must poison
				// quiescence so the coordinator can only exit through the
				// fatal channel, never through a false "all delivered" verdict.
				a.fatalErr(fmt.Errorf("bsp: async exchange: frame %d->%d seq %d: %w", w, dst, seq, err))
				return false
			}
		}
		wctx.out[dst] = batch[:0]
	}
	return true
}

// workerLoop is one worker's life: seed (Init) unless restored, then drain
// the queue in bursts, flushing frames as they fill and expanding frames from
// peers as they arrive — no barrier anywhere.
func (a *asyncAttempt[M]) workerLoop(w int) {
	defer a.wg.Done()
	wk := a.workers[w]
	wctx := newContext[M](a.cfg, w, 0, &a.r.abort)
	if !a.r.restored {
		start := time.Now()
		a.r.prog.Init(wctx)
		a.noteBurst(wk, wctx, time.Since(start), 0)
		if !a.flushOut(wk, wctx, true) {
			return
		}
	}
	// after runs between messages: it stops the burst when the attempt is
	// halting and ships every batch that has filled a frame, so peers start
	// expanding while this worker is still working through its queue.
	lastFlushSent, flushFailed := int64(0), false
	after := func() bool {
		if a.halt.Load() {
			return false
		}
		if wctx.sent-lastFlushSent >= int64(a.flushEvery) {
			if flushFailed = !a.flushOut(wk, wctx, false); flushFailed {
				return false
			}
			lastFlushSent = wctx.sent
		}
		return true
	}
	var burst Inbox[M]
	for {
		wk.mu.Lock()
		for wk.queue.empty() && !a.halt.Load() && !a.pause.Load() && a.r.abort.Load() == nil {
			if outDirty(wctx) {
				wk.mu.Unlock()
				if !a.flushOut(wk, wctx, true) {
					return
				}
				wk.mu.Lock()
				continue
			}
			a.det.setIdle(w, true)
			a.nudgeCoordinator()
			wk.cond.Wait()
		}
		switch {
		case a.halt.Load():
			wk.mu.Unlock()
			return
		case a.r.abort.Load() != nil:
			wk.mu.Unlock()
			a.nudgeCoordinator()
			return
		case a.pause.Load():
			wk.mu.Unlock()
			if !a.flushOut(wk, wctx, true) {
				return
			}
			wk.mu.Lock()
			if a.pause.Load() && !a.halt.Load() {
				wk.paused = true
				a.nudgeCoordinator()
				for a.pause.Load() && !a.halt.Load() {
					wk.cond.Wait()
				}
				wk.paused = false
			}
			wk.mu.Unlock()
			continue
		}
		// Swap the queue out and recycle the drained burst's envelope
		// storage; the frame list is dropped so its payloads can be freed.
		burst, wk.queue = wk.queue, Inbox[M]{Envs: burst.Envs[:0]}
		wk.mu.Unlock()

		wctx.step = int(a.epochNum.Load())
		start := time.Now()
		lastFlushSent = wctx.sent
		processed := deliverInbox(wctx, a.r.prog, a.gprog, &burst, a.runCtx.Done(), after)
		a.noteBurst(wk, wctx, time.Since(start), processed)
		if flushFailed || a.runCtx.Err() != nil {
			a.nudgeCoordinator()
			return
		}
	}
}

// runAsync is one attempt of the async loop: fresh queues (seeded from a
// restored snapshot, if any), fresh detector, fresh transport.
func runAsync[M any](ctx context.Context, r *run[M]) error {
	a := newAsyncAttempt(r)
	t, err := newTransport(ctx, r.cfg.Exchange, &r.cfg, a.hooks())
	if err != nil {
		return err
	}
	a.transport = t
	return a.runAttempt(ctx)
}
