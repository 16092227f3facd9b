// Package bsp is a hand-rolled Bulk Synchronous Parallel engine in the style
// of Pregel/Giraph, the substrate the paper implements PSgL on (Section 6).
// K workers each own a random partition of the data vertices; computation
// proceeds in supersteps separated by barriers; all communication is message
// passing addressed to data vertices, routed to the owning worker.
//
// All messages move through one frame transport (transport.go) with two
// implementations: in-process, and a loopback-TCP mesh (tcp.go) that
// round-trips every inter-worker batch through the binary wire codec
// (wire.go, compress.go) and the network stack, for distributed-execution
// realism on a single machine. A fault middleware (faults.go) wraps either
// to drop, delay, or error frames deterministically, for recovery testing.
// One loop runs on it (loop.go): persistent workers, a coordinator, and a
// credit/ack termination detector whose verdict is the superstep barrier;
// Config.AsyncExchange moves two policy points inside it.
//
// Fault tolerance mirrors the Giraph substrate the paper ran on: the loop's
// boundaries are the recovery points. RunContext can snapshot a run's state
// (next inboxes plus merged stats) into a CheckpointStore (checkpoint.go),
// retry failed frames with bounded exponential backoff (retry.go), rebuild
// the transport and restore the latest checkpoint when an attempt fails, and
// resume an entirely new run from a persisted checkpoint (Config.ResumeFrom)
// — the shell below.
//
// The engine records the metrics the paper's cost model is built on
// (Equation 3): per-superstep, per-worker compute time and message counts,
// from which a simulated makespan Σ_s max_k L_ks is derived. That simulated
// makespan is what the scalability experiment (Figure 8) reports, so worker
// counts larger than the physical core count behave like real workers.
//
// Run counters are slots, not map entries: CounterID interns a name to a small
// id once (programs resolve theirs at package init), Context.Add bumps the
// worker's slot, and names reappear only where a boundary folds the non-zero
// slots into RunStats.Counters — so a key is present iff its total is non-zero.
package bsp

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"psgl/internal/graph"
	"psgl/internal/obs"
)

// Envelope is one message addressed to a data vertex.
type Envelope[M any] struct {
	Dest graph.VertexID
	Msg  M
}

// Program is the worker-centric computation the engine runs. Init runs once
// per worker in superstep 0 and seeds the first messages (PSgL's
// initialization phase). Process handles one delivered message in every later
// superstep (PSgL's expansion phase). Both may send new messages through the
// Context. Implementations must be safe for concurrent execution across
// workers; the engine never calls the same worker concurrently.
type Program[M any] interface {
	Init(ctx *Context[M])
	Process(ctx *Context[M], env Envelope[M])
}

// Config parameterizes a run.
type Config struct {
	// Workers is the number of BSP workers K (>= 1).
	Workers int
	// Owner maps a data vertex to the worker that owns it.
	Owner func(graph.VertexID) int
	// MaxSupersteps aborts runaway computations: at most MaxSupersteps
	// supersteps (including the initialization step) are executed. 0 means
	// 1 << 20.
	MaxSupersteps int
	// Exchange selects the transport messages move over (e.g.
	// NewTCPExchangeFactory, NewFaultyExchangeFactory). Nil uses the
	// in-process transport.
	Exchange ExchangeFactory
	// StepTimeout bounds each superstep (compute plus exchange). A superstep
	// exceeding it fails like an exchange error: it is eligible for
	// checkpoint recovery, otherwise it fails the run. 0 means no deadline.
	// The async exchange has no supersteps to bound: setting both fails the
	// run with ErrAsyncStepTimeout.
	StepTimeout time.Duration
	// Retry wraps every frame Send in bounded exponential backoff. The zero
	// value performs a single attempt.
	Retry RetryPolicy
	// CheckpointEvery > 0 snapshots the run state (next inboxes plus merged
	// stats) into CheckpointStore at every Nth barrier.
	CheckpointEvery int
	// CheckpointStore receives barrier snapshots; required when
	// CheckpointEvery > 0, and the source of in-run recovery restores.
	CheckpointStore CheckpointStore
	// ResumeFrom, when non-nil, loads the latest snapshot from the store and
	// resumes the run from that barrier instead of starting at Init. An
	// empty store falls back to a fresh start.
	ResumeFrom CheckpointStore
	// MaxRecoveries is how many times a failed attempt (a frame that
	// exhausted its retries, a lost connection, or a step deadline) may be
	// recovered in-run by rebuilding the transport from its factory and
	// restoring the latest checkpoint (or restarting from scratch when no
	// checkpoint exists yet). 0 disables in-run recovery.
	MaxRecoveries int
	// AsyncExchange moves the run loop's three policy points (loop.go) from
	// stepped to pipelined: a delivered frame is enqueued at its destination
	// at once instead of staged for the next superstep, a worker flushes
	// every batch that fills a frame instead of only when its inbox is
	// drained, and a worker takes what it sent itself back one chunk at a
	// time, newest first, ahead of peers' frames, so the run goes depth
	// first and a capped run meets its cap early. Final counts are bit-identical to strict mode for programs
	// whose results are independent of message-processing order. With no
	// supersteps left, StepTimeout is rejected, MaxSupersteps caps flushed
	// frames per worker, and checkpoints are taken at induced pauses.
	AsyncExchange bool
	// CompressFrames selects the front-coding frame codec (compress.go):
	// batches are sorted by encoding and shipped as shared-prefix + suffix
	// deltas, and inboxes keep them encoded until the run loop decodes them
	// one bounded chunk at a time — trading codec CPU for bytes on the wire
	// and peak RSS. Requires *M to implement WireMessage (silently ignored
	// otherwise). A worker's batch for itself is front coded too in strict
	// mode; under AsyncExchange it goes straight into the worker's own queue,
	// flat.
	CompressFrames bool
	// Observer receives the run's metrics and trace events (superstep
	// timings, exchange volume, transport frames and bytes, checkpoint and
	// recovery events). Nil disables observation entirely; every hook is a
	// nil-receiver no-op, and no hook runs per message, so the compute hot
	// path is unaffected either way.
	Observer *obs.Observer

	// asyncFlushEvery is the pipelined frame granularity: a worker flushes
	// a destination batch once it holds this many messages. 0 means
	// defaultAsyncFlushEvery; only this package's tests set it, to force
	// frame counts a small workload would not otherwise reach.
	asyncFlushEvery int
}

// ErrAborted wraps the error passed to Context.Abort.
var ErrAborted = errors.New("bsp: computation aborted")

// ErrAsyncStepTimeout rejects a Config that sets both AsyncExchange and
// StepTimeout.
var ErrAsyncStepTimeout = errors.New("bsp: StepTimeout bounds barriered supersteps and the async exchange has none; bound the run with a context deadline instead")

// Snapshotter is an optional Program extension for programs carrying state
// outside the BSP inboxes — accumulators, RNG streams, local heuristic
// views. When the Program implements it, that state rides along every
// barrier snapshot and is restored (or reset, on a restart from scratch)
// together with the engine's own state, so program-side metrics stay
// exactly-once across retries, recoveries, and resumes instead of
// double-counting replayed supersteps.
//
// Both methods are only called between supersteps (at barriers), never
// concurrently with Init or Process.
type Snapshotter interface {
	// SnapshotState returns an opaque encoding of the program's barrier
	// state.
	SnapshotState() ([]byte, error)
	// RestoreState replaces the program's state with a previously
	// snapshot one. nil data means "reset to the initial state" (a restart
	// from scratch, or a resume from a snapshot predating the program's
	// state format).
	RestoreState(data []byte) error
}

// Counter is the slot index of an interned counter name.
type Counter int

// counters is the process-wide name table; it only grows.
var counters = struct {
	sync.Mutex
	ids   map[string]Counter
	names []string
}{ids: map[string]Counter{}}

// CounterID interns name and returns its slot. Programs that count per message
// resolve their ids once, at package init.
func CounterID(name string) Counter {
	counters.Lock()
	defer counters.Unlock()
	id, ok := counters.ids[name]
	if !ok {
		id = Counter(len(counters.names))
		counters.ids[name], counters.names = id, append(counters.names, name)
	}
	return id
}

// Context is the per-worker API surface available to a Program. It is not
// safe to retain across supersteps.
type Context[M any] struct {
	worker int
	step   int
	cfg    *Config
	// out[w] is the batch for worker w: chunks filled to capacity, never
	// regrown. Handed to the transport it is the receiver's; a new one starts.
	out     [][][]Envelope[M]
	spare   [][]Envelope[M] // emptied chunks for addChunk: own chunks a pipelined worker processed (capped), or what ResetSends kept
	sent    int64
	local   []int64 // counter deltas, indexed by Counter
	aborted *atomic.Pointer[error]
	done    <-chan struct{} // the current superstep's context's
}

func newContext[M any](cfg *Config, worker, step int, aborted *atomic.Pointer[error]) *Context[M] {
	return &Context[M]{
		worker:  worker,
		step:    step,
		cfg:     cfg,
		out:     make([][][]Envelope[M], cfg.Workers),
		aborted: aborted,
	}
}

// Worker returns this worker's id in [0, Workers).
func (c *Context[M]) Worker() int { return c.worker }

// Step returns the current superstep (0 = initialization).
func (c *Context[M]) Step() int { return c.step }

// Stopped is the stop test: an abort is latched or the superstep's context is
// done (canceled or timed out). Polling the context costs a channel select, so
// a loop polls every 256 items: the inbox delivery per message, and an Init
// that expands what it seeds per seed.
func (c *Context[M]) Stopped() bool {
	if c.aborted.Load() != nil {
		return true
	}
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// Send routes msg to the worker owning dest, for delivery next superstep.
func (c *Context[M]) Send(dest graph.VertexID, msg M) {
	w := c.cfg.Owner(dest)
	n := len(c.out[w])
	if n == 0 || len(c.out[w][n-1]) == cap(c.out[w][n-1]) {
		c.addChunk(w)
		n++
	}
	c.out[w][n-1] = append(c.out[w][n-1], Envelope[M]{Dest: dest, Msg: msg})
	c.sent++
}

// addChunk opens the next chunk of the batch for worker w: 8 envelopes, then
// twice the chunk before up to 64, so K simulated workers never pre-pay K² full
// chunks and a batch wastes less than one small chunk however it ends.
func (c *Context[M]) addChunk(w int) {
	var chunk []Envelope[M]
	if n := len(c.spare); n > 0 {
		chunk, c.spare = c.spare[n-1], c.spare[:n-1]
	} else if n := len(c.out[w]); n > 0 {
		chunk = make([]Envelope[M], 0, min(2*cap(c.out[w][n-1]), 64))
	} else {
		chunk = make([]Envelope[M], 0, 8)
	}
	c.out[w] = append(c.out[w], chunk)
}

// Add accumulates delta into the run counter id; counters from all workers are
// merged at each boundary and reported, by name, in RunStats.Counters.
func (c *Context[M]) Add(id Counter, delta int64) {
	for int(id) >= len(c.local) { // a slot this context has not counted in yet
		c.local = append(c.local, 0)
	}
	c.local[id] += delta
}

// AddCounter is Add for callers that count too rarely to keep an id.
func (c *Context[M]) AddCounter(name string, delta int64) { c.Add(CounterID(name), delta) }

// Abort stops the computation: every worker short-circuits the remainder of
// its inbox for the current superstep, and the run ends at the barrier. The
// first error wins; Run returns it wrapped in ErrAborted.
func (c *Context[M]) Abort(err error) {
	if err == nil {
		err = errors.New("abort with nil error")
	}
	c.aborted.CompareAndSwap(nil, &err)
}

// RunStats reports what happened during a run.
type RunStats struct {
	Supersteps      int
	MessagesTotal   int64
	PerStepMessages []int64
	// WorkerTime[w] is worker w's total compute time across all supersteps
	// (Figure 5 reports exactly this per-worker series).
	WorkerTime []time.Duration
	// WorkerMessages[w] counts messages processed by worker w.
	WorkerMessages []int64
	// PerStepWorkerTime[s][w] is worker w's compute time in superstep s.
	PerStepWorkerTime [][]time.Duration
	Counters          map[string]int64
	// Recoveries counts in-run checkpoint-restore recoveries (not retries).
	Recoveries int
}

// addStep appends one row — a superstep, or an async epoch — to the stats.
func (s *RunStats) addStep(workerTimes []time.Duration, produced int64) {
	for w, t := range workerTimes {
		s.WorkerTime[w] += t
	}
	s.PerStepWorkerTime = append(s.PerStepWorkerTime, workerTimes)
	s.PerStepMessages = append(s.PerStepMessages, produced)
	s.MessagesTotal += produced
	s.Supersteps++
}

// SimulatedMakespan is the cost model of Equation 3: the sum over supersteps
// of the slowest worker's compute time. It is the engine's runtime metric
// when the worker count exceeds the physical core count.
func (s *RunStats) SimulatedMakespan() time.Duration {
	var total time.Duration
	for _, stepTimes := range s.PerStepWorkerTime {
		var slowest time.Duration
		for _, t := range stepTimes {
			slowest = max(slowest, t)
		}
		total += slowest
	}
	return total
}

// Run executes prog to completion: superstep 0 calls Init on every worker;
// each later superstep delivers the previous step's messages; the run ends
// when a superstep produces no messages, or when a worker aborts.
func Run[M any](cfg Config, prog Program[M]) (*RunStats, error) {
	return RunContext[M](context.Background(), cfg, prog)
}

// validate rejects a Config the loop cannot honour.
func (cfg *Config) validate() error {
	switch {
	case cfg.Workers < 1:
		return fmt.Errorf("bsp: need >= 1 worker, have %d", cfg.Workers)
	case cfg.Owner == nil:
		return fmt.Errorf("bsp: Owner function is required")
	case cfg.CheckpointEvery > 0 && cfg.CheckpointStore == nil:
		return fmt.Errorf("bsp: CheckpointEvery set without a CheckpointStore")
	case cfg.MaxRecoveries > 0 && cfg.CheckpointStore == nil:
		return fmt.Errorf("bsp: MaxRecoveries set without a CheckpointStore")
	case cfg.AsyncExchange && cfg.StepTimeout > 0:
		return ErrAsyncStepTimeout
	}
	return nil
}

// run is the state RunContext's shell owns across attempts: where the next
// attempt starts (superstep 0 with nothing delivered, or a restored
// snapshot) and the stats that roll back with it.
type run[M any] struct {
	cfg      Config
	prog     Program[M]
	snapper  Snapshotter
	maxSteps int
	abort    atomic.Pointer[error]

	stats *RunStats
	// step is the superstep the next attempt enters; restored says its
	// inboxes come from a snapshot, so Init must not run again.
	step     int
	restored bool
	inboxes  []Inbox[M]
}

// attemptFailure is how an attempt reports a failure recovery may get past —
// a frame that exhausted its retries, a lost connection, a blown step
// deadline — as opposed to the errors that end the run whatever the budget
// (abort, cancellation, the runaway bound, a failed checkpoint save).
type attemptFailure struct {
	step  int
	cause error
}

func (f *attemptFailure) Error() string { return f.cause.Error() }

func newRunStats(k int) *RunStats {
	return &RunStats{
		WorkerTime:     make([]time.Duration, k),
		WorkerMessages: make([]int64, k),
		Counters:       map[string]int64{},
	}
}

// load points the run at store's latest snapshot: stats, inboxes, and the
// program's own state (load accumulators, RNGs, …) all roll back to the same
// barrier, which is what keeps every logical counter exactly-once. ok is
// false, with the run untouched, when the store holds no snapshot yet.
func (r *run[M]) load(store CheckpointStore) (ok bool, err error) {
	snap, err := loadSnapshot[M](store)
	if errors.Is(err, ErrNoCheckpoint) {
		return false, nil
	} else if err != nil {
		return false, err
	}
	k := r.cfg.Workers
	if len(snap.Stats.WorkerTime) != k || len(snap.Stats.WorkerMessages) != k {
		return false, fmt.Errorf("snapshot has %d workers, config has %d", len(snap.Stats.WorkerTime), k)
	}
	snap.Stats.Recoveries = r.stats.Recoveries
	r.stats = &snap.Stats
	r.step, r.restored, r.inboxes = snap.Step, true, snap.inboxRows(k)
	if r.snapper != nil {
		if err := r.snapper.RestoreState(snap.Prog); err != nil {
			return false, fmt.Errorf("restoring program state: %w", err)
		}
	}
	return true, nil
}

// recover handles a failed attempt: restore the latest checkpoint — or
// restart from scratch when none exists yet — so the next attempt, over a
// transport rebuilt from its factory (for TCP this is the reconnect), resumes
// from there. It returns the error that fails the run when the budget is
// spent or the checkpoint unusable.
func (r *run[M]) recover(ctx context.Context, fail *attemptFailure) error {
	cfg := &r.cfg
	if ctx.Err() != nil || cfg.CheckpointStore == nil || r.stats.Recoveries >= cfg.MaxRecoveries {
		return fail.cause
	}
	r.stats.Recoveries++
	cfg.Observer.RecoveryStarted(fail.step, fail.cause)
	restoreStart := time.Now()
	restored, err := r.load(cfg.CheckpointStore)
	if err != nil {
		return fmt.Errorf("bsp: loading checkpoint after step %d: %w (original failure: %w)", fail.step, err, fail.cause)
	}
	if restored {
		cfg.Observer.CheckpointRestored(r.step, time.Since(restoreStart))
		return nil
	}
	// No snapshot yet: restart from scratch, resetting program-side state
	// with the engine's.
	recoveries := r.stats.Recoveries
	r.stats = newRunStats(cfg.Workers)
	r.stats.Recoveries = recoveries
	r.step, r.restored, r.inboxes = 0, false, nil
	if r.snapper != nil {
		if err := r.snapper.RestoreState(nil); err != nil {
			return fmt.Errorf("bsp: resetting program state after step %d: %v (original failure: %w)", fail.step, err, fail.cause)
		}
	}
	cfg.Observer.RestartedFromScratch(fail.step)
	return nil
}

// RunContext is Run with cancellation: the run stops at the next barrier (or
// message boundary within a superstep) once ctx is done, and ctx deadlines
// bound the transport's network operations. Config.StepTimeout additionally
// derives a per-superstep deadline from ctx.
//
// It is the shell the loop runs in: validate, resume from a persisted
// checkpoint if asked, then run attempts — each over a freshly built
// transport — recovering between them while the budget lasts, and report the
// run's start and end to the observer.
func RunContext[M any](ctx context.Context, cfg Config, prog Program[M]) (rstats *RunStats, rerr error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	r := &run[M]{cfg: cfg, prog: prog, maxSteps: cfg.MaxSupersteps, stats: newRunStats(cfg.Workers)}
	r.snapper, _ = any(prog).(Snapshotter)
	if r.maxSteps <= 0 {
		r.maxSteps = 1 << 20
	}
	if cfg.ResumeFrom != nil {
		resumeStart := time.Now()
		resumed, err := r.load(cfg.ResumeFrom)
		if err != nil {
			return nil, fmt.Errorf("bsp: resume: %w", err)
		}
		if resumed { // an empty store is a fresh start
			cfg.Observer.Resumed(r.step, time.Since(resumeStart))
		}
	}

	cfg.Observer.RunStarted(cfg.Workers, r.step)
	defer func() {
		// The logical end state comes from RunStats, which rolls back with
		// snapshots — exactly-once regardless of replays.
		cfg.Observer.RunEnded(rstats.Supersteps, rstats.MessagesTotal, rstats.Counters,
			rstats.WorkerTime, rstats.WorkerMessages, rerr)
	}()
	for {
		err := runAttempt(ctx, r)
		fail, recoverable := err.(*attemptFailure)
		if !recoverable {
			return r.stats, err
		}
		if err := r.recover(ctx, fail); err != nil {
			return r.stats, err
		}
	}
}
