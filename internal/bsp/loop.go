package bsp

// The run loop (DESIGN §8, §13). A run is K persistent worker goroutines,
// one coordinator, one credit/ack termination detector and one boundary
// routine over one transport. Every frame a worker ships is charged to the
// credit ledger before its Send and released once delivered, so "every
// worker idle and zero credit outstanding" means nothing is running and
// nothing is in flight; at that verdict the coordinator runs the boundary:
// close the RunStats row, end the run if nothing is pending, checkpoint if one
// is due, release the workers. A boundary is also where a stopped run can be
// resumed from: its snapshot is the next queues plus the stats. A failed Send
// ends the run with its error.
//
// Config.AsyncExchange moves three policy points inside that one loop:
//
//   - stepped (the default, strict BSP): deliver stages a frame per (dst, src)
//     and a worker flushes only once its inbox is drained, so every worker
//     goes idle after one drain, the verdict is the superstep barrier, and the
//     boundary publishes the staged frames as the next inboxes — a superstep is
//     a pipelined epoch whose deliveries are deferred to the next epoch.
//   - pipelined: deliver enqueues a frame at its destination at once and a
//     worker ships a batch mid-burst as soon as its destination goes idle, so
//     expansion overlaps communication and no peer waits for work another
//     worker holds; the verdict arrives when the run is over (or when the
//     coordinator pauses the plane to checkpoint). A worker's batch for itself
//     goes back on its queue as own work after every burst, and it takes that
//     work one chunk at a time, newest first, ahead of peers' frames: a child
//     is produced after its parent, so the run goes depth first and a capped
//     run reaches its first results in work proportional to the depth, not to
//     a breadth-first level.

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// defaultAsyncFlushEvery is the pipelined policy's size trigger: once one
// burst has sent this many messages since its last such flush, a worker ships
// every batch holding at least this many. It is counted per burst, so it
// rarely fires when a burst is one own chunk; the idle trigger (workerLoop)
// is what keeps peers fed, and a worker ships every partial batch before it
// goes idle.
const defaultAsyncFlushEvery = 256

// maxSpareChunks caps the chunks a worker keeps for reuse — own chunks a
// pipelined worker has processed (workerLoop), chunks a Send has encoded
// (ship): about one flush to every peer at K = 4 (32 chunks of 64 envelopes,
// 160 KB), never a free list that grows with the frontier. Over TCP a
// pipelined worker refills from it what it ships: the list-wire benchmark
// allocated 53.2 MB per op at 8 and 50.1 at 32 on a 2-core box.
const maxSpareChunks = 32

// creditDetector decides every boundary. Soundness depends on strict event
// ordering, enforced by the run and the transport contract (deliver, then
// ack):
//
//	sender:    outstanding[src]++ happens BEFORE transport.Send, and a worker
//	           sets its idle flag only AFTER charging everything it sends
//	deliverer: stage — or enqueue → idle[dst]=false → activity++, all under
//	           the destination's queue lock — and only THEN ack (outstanding--)
//
// so a frame is always covered by outstanding credit (in flight), a staged
// slot, or a non-idle destination (enqueued). quiescent() reads the activity
// epoch twice around its scan; any enqueue racing the scan bumps the epoch and
// voids the verdict.
type creditDetector struct {
	outstanding []atomic.Int64 // per-worker frames sent and not yet delivered
	inFlight    atomic.Int64   // global gauge feeding the frames-in-flight peak counter
	idle        []atomic.Bool  // worker parked with nothing buffered (and, unless a boundary is being induced, nothing queued)
	activity    atomic.Uint64  // bumped on every enqueue; double-read by quiescent
	// onScan, when non-nil, runs before each of the scan's two passes — a test
	// seam for racing workers and frames against the verdict.
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

// frameAcked releases src's credit once the frame is delivered.
func (d *creditDetector) frameAcked(src int) {
	d.outstanding[src].Add(-1)
	d.inFlight.Add(-1)
}

// enqueued records work landing in dst's queue. Callers must hold dst's queue
// lock, so dst cannot check its queue and flag itself idle in between.
func (d *creditDetector) enqueued(dst int) {
	d.idle[dst].Store(false)
	d.activity.Add(1)
}

func (d *creditDetector) setIdle(w int, v bool) { d.idle[w].Store(v) }

// quiescent reports global termination: every worker idle and zero credit
// outstanding, with the activity epoch unchanged across the scan. The idle
// flags are read first: a worker seen idle has charged everything it sent, so
// the credit pass that follows cannot miss a frame of its (the other way
// round, a worker could charge a frame and go idle between the passes). A
// worker woken after it was seen idle was woken by an enqueue: the epoch.
func (d *creditDetector) quiescent() bool {
	e1 := d.activity.Load()
	if d.onScan != nil {
		d.onScan()
	}
	for i := range d.idle {
		if !d.idle[i].Load() {
			return false
		}
	}
	if d.onScan != nil {
		d.onScan()
	}
	for i := range d.outstanding {
		if d.outstanding[i].Load() != 0 {
			return false
		}
	}
	return d.activity.Load() == e1
}

// worker is one worker's queue and delta accumulators, guarded by mu except
// the sequence number; the deltas are merged into RunStats (and reset) at
// boundaries so checkpoint rollback keeps them exactly-once.
type worker[M any] struct {
	mu   sync.Mutex
	cond *sync.Cond

	queue Inbox[M]

	// sendSeq numbers the frames that hit the transport: the ordinal word of
	// a pipelined frame. Touched only by the worker's own goroutine.
	sendSeq int

	ran       bool      // a burst was noted since the last merge
	burstEnd  time.Time // when the latest burst's compute ended
	procTime  time.Duration
	processed int64
	produced  int64
	counters  []int64 // the context's counter slots, as of the latest burst
}

// run is one run of the loop: the program, its stats and abort flag, the
// workers' queues, the detector and the transport. restored says the queues
// came from a snapshot (load), so no worker runs Init.
type run[M any] struct {
	cfg      Config
	prog     Program[M]
	snapper  Snapshotter
	abort    atomic.Pointer[error]
	stats    *RunStats
	restored bool

	// The policy, as values: stepped is where deliver puts a frame, flushEvery
	// when a worker flushes mid-burst (never, stepped); ckFrames is the
	// pipelined reading of CheckpointEvery (the stepped boundary counts real
	// supersteps instead).
	stepped    bool
	flushEvery int
	ckFrames   int64

	det     *creditDetector
	workers []*worker[M]
	// staged[dst][src] holds what src sent dst under the current superstep.
	// Each slot is written by the one goroutine delivering that pair's Send
	// and read by the boundary only once that Send's credit is released, so
	// the slots need no lock; staging per pair keeps the published inbox
	// src-ordered whatever order frames arrive in (in-process and TCP runs
	// process identical sequences).
	staged [][]Inbox[M]

	transport transport[M]
	ctx       context.Context

	nudge chan struct{}
	fatal chan error
	halt  atomic.Bool
	pause atomic.Bool
	wg    sync.WaitGroup

	// step is the RunStats row being filled — the superstep, or the pipelined
	// epoch (one per induced boundary, so SimulatedMakespan keeps a row per
	// quiescence interval). Workers stamp it on their contexts.
	step        atomic.Int64
	ackedFrames atomic.Int64 // since the last checkpoint
}

func newRun[M any](cfg Config, prog Program[M]) *run[M] {
	k := cfg.Workers
	r := &run[M]{
		cfg:        cfg,
		prog:       prog,
		stats:      newRunStats(k),
		stepped:    !cfg.AsyncExchange,
		flushEvery: math.MaxInt,
		det:        newCreditDetector(k),
		workers:    make([]*worker[M], k),
		nudge:      make(chan struct{}, 1),
		// A few slots so concurrent failures are not all lost to the
		// non-blocking send; only the first one read matters.
		fatal: make(chan error, 8),
	}
	r.snapper, _ = any(prog).(Snapshotter)
	if r.stepped {
		r.staged = make([][]Inbox[M], k)
		for dst := range r.staged {
			r.staged[dst] = make([]Inbox[M], k)
		}
	} else {
		r.flushEvery = cmp.Or(cfg.asyncFlushEvery, defaultAsyncFlushEvery)
		// One barrier moves about K frames per worker, so CheckpointEvery×K
		// acked frames is the stand-in for "every Nth barrier".
		r.ckFrames = int64(cfg.CheckpointEvery * k)
	}
	for w := range r.workers {
		wk := &worker[M]{}
		wk.cond = sync.NewCond(&wk.mu)
		r.workers[w] = wk
	}
	return r
}

func (r *run[M]) hooks() hooks[M] {
	return hooks[M]{deliver: r.deliver, ack: r.ack, fatal: r.fatalErr}
}

// deliver takes what one Send carried — the chunks are dst's from here on.
// Stepped, it stages the frame for the boundary to publish. Pipelined, it
// appends the chunk headers to dst's queue, and the ordering is load-bearing:
// append, clear the idle flag, and bump the activity epoch all under the queue
// lock, so the detector can never see dst idle over a frame it has not woken
// up for.
func (r *run[M]) deliver(src, dst, ord int, in Inbox[M]) {
	if r.halt.Load() {
		// The run is tearing down: nothing reads the queues any more.
		return
	}
	if r.stepped {
		if step := int(r.step.Load()); ord != step {
			// The transport acks a skewed frame like any other: charge it a
			// second credit nothing releases, so the step can only end through
			// the fatal channel, never by completing over the missing frame.
			r.det.frameSent(src)
			r.fatalErr(fmt.Errorf("bsp: frame %d->%d: step skew %d != %d", src, dst, ord, step))
			return
		}
		r.staged[dst][src] = in
		return
	}
	wk := r.workers[dst]
	wk.mu.Lock()
	busy := !r.det.idle[dst].Load() && !wk.queue.empty()
	wk.queue.Chunks = append(wk.queue.Chunks, in.Chunks...)
	wk.queue.Frames = append(wk.queue.Frames, in.Frames...)
	r.det.enqueued(dst)
	wk.cond.Signal()
	wk.mu.Unlock()
	if busy {
		// The destination was already working through a backlog when this
		// frame landed: expansion is overlapping communication.
		r.cfg.Observer.AddEarlyExpansion()
	}
}

// ack releases src's credit once a frame it sent has been delivered.
// Transports must call it strictly after deliver for the same frame — that
// ordering is what makes zero outstanding credit mean "every sent frame is
// staged or in a queue". The nudge is unconditional: over the TCP transport
// acks arrive from reader goroutines, so the final ack — the one that brings
// outstanding credit to zero — can land after the last worker's idle-nudge was
// already consumed, and without a fresh nudge here the coordinator would block
// on the nudge channel with the plane fully quiescent.
func (r *run[M]) ack(src int) {
	r.det.frameAcked(src)
	r.ackedFrames.Add(1)
	r.nudgeCoordinator()
}

func (r *run[M]) nudgeCoordinator() { trySend(r.nudge, struct{}{}) }

// fatalErr ends the run (the first error read wins) with a transport
// failure: a Send that failed, a reader that lost its connection.
func (r *run[M]) fatalErr(err error) { trySend(r.fatal, err) }

// drive runs the loop to a terminal condition: nothing pending at a boundary
// (nil), abort, cancellation, or a transport failure. Workers are always
// joined and the transport closed before it returns; the final merge keeps
// RunStats consistent either way.
func (r *run[M]) drive(ctx context.Context) error {
	r.ctx = ctx
	err := r.openStep()
	if err == nil {
		for w := range r.workers {
			r.wg.Add(1)
			go r.workerLoop(w)
		}
		err = r.coordinate()
	}
	r.halt.Store(true)
	r.broadcastAll()
	r.wg.Wait()
	r.transport.Close()
	r.mergeDeltas()
	return err
}

// coordinate is the one coordinator: it scans the detector whenever a worker
// or the transport nudges it and runs the boundary at every verdict.
func (r *run[M]) coordinate() error {
	for {
		if p := r.abort.Load(); p != nil {
			r.cfg.Observer.Aborted(int(r.step.Load()), *p)
			return fmt.Errorf("%w: %w", ErrAborted, *p)
		}
		r.cfg.Observer.AddCreditRound()
		switch {
		case r.det.quiescent():
			if done, err := r.boundary(); done || err != nil {
				return err
			}
		case r.ckFrames > 0 && !r.pause.Load() && r.ackedFrames.Load() >= r.ckFrames:
			// A checkpoint is due: induce a boundary. Workers flush partial
			// batches and idle with their queues as they stand; once the
			// credit has drained, a scan says quiescent.
			r.pause.Store(true)
			r.broadcastAll()
		default:
			if err := r.wait(); err != nil {
				return err
			}
		}
	}
}

// wait parks the coordinator until a worker or the transport nudges it, and
// returns the error that ends the run if one arrived instead.
func (r *run[M]) wait() error {
	select {
	case <-r.ctx.Done():
		return fmt.Errorf("bsp: run canceled at step %d: %w", r.step.Load(), r.ctx.Err())
	case err := <-r.fatal:
		return err
	case <-r.nudge:
		return nil
	}
}

// openStep begins the stepped policy's next superstep: the cancellation
// check the run makes between supersteps, the step's trace event.
func (r *run[M]) openStep() error {
	if !r.stepped {
		return nil
	}
	step := int(r.step.Load())
	if err := r.ctx.Err(); err != nil {
		return fmt.Errorf("bsp: run canceled at step %d: %w", step, err)
	}
	r.cfg.Observer.StepStarted(step)
	return nil
}

// boundary is the one routine between epochs, run with every worker parked and
// zero credit outstanding: a superstep barrier (stepped), the final quiescence
// or an induced pause (pipelined). It closes the RunStats row, publishes the
// staged frames as the next queues, ends the run if nothing is queued, takes
// the checkpoint if one is due, opens the next superstep, releases the workers.
func (r *run[M]) boundary() (done bool, err error) {
	produced, computed := r.mergeDeltas()
	inboxes, pending := make([]Inbox[M], len(r.workers)), false
	for dst, wk := range r.workers {
		wk.mu.Lock()
		if r.stepped {
			// Publish what every source staged, in source order: chunk headers
			// and frame payloads move, no envelope does. The staged references
			// go now, so the worker draining a chunk is the one that frees it.
			for _, in := range r.staged[dst] {
				wk.queue.Chunks = append(wk.queue.Chunks, in.Chunks...)
				wk.queue.Frames = append(wk.queue.Frames, in.Frames...)
			}
			clear(r.staged[dst])
		}
		inboxes[dst] = wk.queue
		pending = pending || !wk.queue.empty()
		wk.mu.Unlock()
	}
	if !pending {
		return true, nil
	}
	if r.stepped {
		// The exchange is what the step still cost once its slowest worker
		// had finished computing: sends, deliveries, and the publish above.
		r.cfg.Observer.ExchangeDone(int(r.step.Load()), time.Since(computed), produced)
	}
	next := r.stats.Supersteps
	r.step.Store(int64(next))
	// An induced pause is for a checkpoint; a superstep takes one on the cadence.
	if every := r.cfg.CheckpointEvery; every > 0 && (r.pause.Load() || next%every == 0) {
		// Workers are parked and nothing is in flight, so the queues can be
		// encoded in place; frames stay encoded.
		ckStart := time.Now()
		nbytes, err := saveSnapshot[M](r.cfg.CheckpointStore, next, inboxes, r.stats, r.snapper)
		if err != nil {
			return false, fmt.Errorf("bsp: checkpoint at step %d: %w", next, err)
		}
		r.cfg.Observer.CheckpointSaved(next, nbytes, time.Since(ckStart))
		r.ackedFrames.Store(0)
	}
	if err := r.openStep(); err != nil {
		return false, err
	}
	r.pause.Store(false)
	for w, wk := range r.workers {
		wk.mu.Lock()
		r.det.enqueued(w) // no longer idle: it has a queue to look at
		wk.cond.Broadcast()
		wk.mu.Unlock()
	}
	return false, nil
}

func (r *run[M]) broadcastAll() {
	for _, wk := range r.workers {
		wk.mu.Lock()
		wk.cond.Broadcast()
		wk.mu.Unlock()
	}
}

// mergeDeltas folds every worker's deltas into RunStats as one row — the only
// place a row is added — and resets them, returning what the row's bursts
// produced and when the last of them ended. Called at boundaries (workers
// parked) and at teardown (workers joined; a row only if a burst ran since the
// last boundary); both give the coordinator lock-ordered visibility.
func (r *run[M]) mergeDeltas() (produced int64, computed time.Time) {
	row := make([]time.Duration, len(r.workers))
	counters.Lock()
	names := counters.names // entries are never rewritten: readable unlocked
	counters.Unlock()
	var processed int64
	ran := false
	for w, wk := range r.workers {
		wk.mu.Lock()
		ran = ran || wk.ran
		row[w] = wk.procTime
		if wk.burstEnd.After(computed) {
			computed = wk.burstEnd
		}
		r.stats.WorkerMessages[w] += wk.processed
		produced += wk.produced
		processed += wk.processed
		for id, v := range wk.counters {
			if v != 0 {
				r.stats.Counters[names[id]] += v
				wk.counters[id] = 0
			}
		}
		wk.ran, wk.procTime, wk.processed, wk.produced = false, 0, 0, 0
		wk.mu.Unlock()
	}
	if ran {
		r.stats.addStep(row, produced)
		r.cfg.Observer.StepComputed(int(r.step.Load()), row, processed, produced)
	}
	return produced, computed
}

// noteBurst moves the context's per-burst tallies into the worker's guarded
// deltas. The burst's time ends here, before anything it produced is flushed:
// a worker's row excludes its own sends (SimulatedMakespan, Figure 8).
func (r *run[M]) noteBurst(wk *worker[M], wctx *Context[M], start time.Time, processed int64) {
	end := time.Now()
	wk.mu.Lock()
	wk.ran, wk.burstEnd = true, end
	wk.procTime += end.Sub(start)
	wk.processed += processed
	wk.produced += wctx.sent
	wk.counters = wctx.local // one storage: mergeDeltas folds and zeroes it in place
	wk.mu.Unlock()
	wctx.sent = 0
}

// flushOut ships the context's non-empty batches: all=false only those that
// reached flushEvery, all=true every one.
func (r *run[M]) flushOut(wk *worker[M], wctx *Context[M], all bool) bool {
	for dst, batch := range wctx.out {
		if n := chunksLen(batch); n == 0 || (!all && n < r.flushEvery) {
			continue
		}
		if !r.ship(wk, wctx, dst) {
			return false
		}
	}
	return true
}

// ship sends the context's batch for dst, charged to the credit ledger before
// its Send. Stepped, every batch goes through the transport under ord =
// superstep — the self batch too (deliver stages it; over TCP it is a flat
// frame like every peer's). Pipelined, the self batch goes straight onto the
// worker's own work (no transport, no credit: the worker re-checks its queue
// before idling) and wire frames go under the worker's sequence number.
// Either way the context starts a new batch; the shipped chunks are the
// receiver's, unless the Send encoded them — then they are spare chunks for
// the next batch.
func (r *run[M]) ship(wk *worker[M], wctx *Context[M], dst int) bool {
	w, batch := wctx.worker, wctx.out[dst]
	if dst == w && !r.stepped {
		wk.mu.Lock()
		wk.queue.own = append(wk.queue.own, batch...)
		wk.mu.Unlock()
	} else {
		wk.sendSeq++
		ord := wk.sendSeq
		if r.stepped {
			ord = wctx.step
		}
		r.cfg.Observer.ObserveFramesInFlight(r.det.frameSent(w))
		spent, err := r.transport.Send(r.ctx, w, dst, ord, batch)
		if err != nil {
			r.cfg.Observer.ExchangeFailed(ord, err)
			// Leave the credit outstanding: the lost frame must poison
			// quiescence so the coordinator can only exit through the
			// fatal channel, never through a false "all delivered" verdict.
			r.fatalErr(fmt.Errorf("bsp: exchange failed at step %d: frame %d->%d ord %d: %w", wctx.step, w, dst, ord, err))
			return false
		}
		// The largest chunks are the last ones filled.
		for i := len(batch) - 1; spent && i >= 0 && len(wctx.spare) < maxSpareChunks; i-- {
			wctx.spare = append(wctx.spare, batch[i][:0])
		}
	}
	wctx.out[dst] = nil
	return true
}

// deliverInbox is how a worker consumes deliveries: envelope chunks first,
// then the flat frames, each in the order it was queued, so a TCP run (every
// delivery a frame) processes what an in-process run (every delivery chunks)
// does in the same order. A frame is decoded one message at a time into a
// zeroed envelope, so nothing a DecodeWire keeps of its receiver is shared
// with a message Process kept; each message goes to Process like any chunk's,
// and each chunk and frame is dropped from the inbox once the delivery
// reaches it. A frame that fails to decode aborts the run. The stop test
// (Context.Stopped) short-circuits the rest of the inbox instead of draining
// it: an abort is seen at the next message, a done step context within 256;
// after runs after every Process call (the worker checks for a halt and
// flushes full frames there) and stops the delivery by returning false.
// Returns the number of messages processed.
func deliverInbox[M any](ctx *Context[M], prog Program[M], ib *Inbox[M], after func() bool) int64 {
	processed := int64(0)
	// process hands message i of a chunk or frame to Process; false stops the
	// delivery.
	process := func(i int, env *Envelope[M]) bool {
		if ctx.aborted.Load() != nil || i&255 == 0 && ctx.Stopped() {
			return false
		}
		prog.Process(ctx, *env)
		processed++
		return after()
	}
	for c, chunk := range ib.Chunks {
		for i := range chunk {
			if !process(i, &chunk[i]) {
				return processed
			}
		}
		ib.Chunks[c] = nil
	}
	var (
		env *Envelope[M] // a frame's decode target
		msg WireMessage  // its Msg
	)
	for f, fp := range ib.Frames {
		if ctx.Stopped() {
			return processed
		}
		ib.Frames[f] = nil
		_, count, rest, err := flatFrameHeader(fp)
		if env == nil {
			env = new(Envelope[M])
			msg = any(&env.Msg).(WireMessage)
		}
		for i := 0; err == nil && i < count; i++ {
			*env = Envelope[M]{}
			if rest, err = decodeEnvelope(env, msg, rest, i, count); err == nil && !process(i, env) {
				return processed
			}
		}
		if err == nil && len(rest) != 0 {
			err = fmt.Errorf("wire frame: %d trailing bytes", len(rest))
		}
		if err != nil {
			ctx.Abort(fmt.Errorf("corrupt flat inbox frame: %w", err))
			return processed
		}
	}
	return processed
}

// take removes the next burst from the queue: the newest chunk of the
// worker's own work while it has any — the deepest work it holds, since a
// child is produced after its parent — and otherwise everything peers
// delivered, in arrival order. Only a pipelined queue holds own work, so a
// stepped burst is the whole superstep inbox. one is the spare chunk list a
// one-chunk burst is returned in; own is that chunk when the burst is own
// work, nil otherwise.
func (ib *Inbox[M]) take(one [][]Envelope[M]) (burst Inbox[M], own []Envelope[M]) {
	if n := len(ib.own); n > 0 {
		own = ib.own[n-1]
		ib.own[n-1] = nil
		ib.own = ib.own[:n-1]
		return Inbox[M]{Chunks: append(one[:0], own)}, own
	}
	burst = *ib
	*ib = Inbox[M]{own: ib.own} // empty; keeps the stack's backing array
	return burst, nil
}

// workerLoop is one worker's life, and the one place an inbox is drained: take
// a burst from the queue (an unrestored run's first opens with Init), process
// it, put the batch for itself back on the queue (pipelined), flush —
// mid-burst to every idle peer and on the size trigger (pipelined),
// everything once the queue is empty — and idle until a delivery or the
// boundary.
func (r *run[M]) workerLoop(w int) {
	defer r.wg.Done()
	wk := r.workers[w]
	wctx := newContext[M](&r.cfg, w, 0, &r.abort)
	wctx.done = r.ctx.Done()
	seed := !r.restored
	// after runs between messages: it stops the burst when the run is
	// halting, runs the size trigger and, pipelined, ships every batch whose
	// destination is idle, so a peer expands what this worker holds for it
	// instead of waiting for this worker's queue to run dry. Outside a pause
	// (which this skips) a worker is idle only with an empty queue, and never
	// while it runs, so the self batch stays. Over TCP the flag stays set
	// until the frame lands, so a sender may ship a few small frames to one
	// idle peer.
	unflushed, lastFlushSent, flushFailed := false, int64(0), false
	var one [1][]Envelope[M] // the chunk list of a one-chunk burst, reused
	after := func() bool {
		if r.halt.Load() {
			return false
		}
		if wctx.sent-lastFlushSent >= int64(r.flushEvery) {
			if flushFailed = !r.flushOut(wk, wctx, false); flushFailed {
				return false
			}
			lastFlushSent = wctx.sent
		}
		if r.stepped || r.pause.Load() {
			return true
		}
		for dst, batch := range wctx.out {
			if len(batch) > 0 && r.det.idle[dst].Load() {
				if flushFailed = !r.ship(wk, wctx, dst); flushFailed {
					return false
				}
			}
		}
		return true
	}
	for {
		wk.mu.Lock()
		// Nothing to drain, or a boundary is being induced: ship what is
		// buffered, then idle until a delivery, the boundary or the end. A
		// worker that has yet to seed runs Init first, whatever its queue and
		// before it honours a pause: the snapshot taken there is all a
		// resumed run has, and a resumed run never seeds.
		for !seed && (wk.queue.empty() || r.pause.Load()) && !r.halt.Load() && r.abort.Load() == nil {
			if unflushed {
				wk.mu.Unlock()
				if !r.flushOut(wk, wctx, true) {
					return
				}
				unflushed = false
				wk.mu.Lock()
				continue
			}
			r.det.setIdle(w, true)
			r.nudgeCoordinator()
			wk.cond.Wait()
		}
		if r.halt.Load() || r.abort.Load() != nil {
			wk.mu.Unlock()
			r.nudgeCoordinator() // an abort is the coordinator's to report
			return
		}
		// deliverInbox drops each chunk and frame of the burst as it finishes
		// with it.
		burst, own := wk.queue.take(one[:0])
		wk.mu.Unlock()

		wctx.step = int(r.step.Load())
		start := time.Now()
		lastFlushSent = 0 // noteBurst zeroed wctx.sent
		if seed {
			r.prog.Init(wctx)
			seed = false
		}
		processed := deliverInbox(wctx, r.prog, &burst, after)
		if own != nil && burst.Chunks[0] == nil && len(wctx.spare) < maxSpareChunks {
			// A processed own chunk is this worker's alone — it never crossed
			// a transport, and a snapshot copies it — so the next batch reuses
			// it instead of allocating.
			wctx.spare = append(wctx.spare, own[:0])
		}
		r.noteBurst(wk, wctx, start, processed)
		unflushed = true
		if flushFailed || r.ctx.Err() != nil {
			r.nudgeCoordinator()
			return
		}
		if !r.stepped && len(wctx.out[w]) > 0 && !r.ship(wk, wctx, w) {
			return
		}
	}
}
