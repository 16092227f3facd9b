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
// realism on a single machine. One loop runs on it (loop.go): persistent
// workers, a coordinator, and a credit/ack termination detector whose verdict
// is the superstep barrier; Config.AsyncExchange moves two policy points
// inside it.
//
// Fault tolerance mirrors the Giraph substrate the paper ran on: snapshot at
// the loop's boundaries, and restart a stopped run from its last snapshot.
// RunContext can save a run's state (next inboxes plus merged stats) into a
// CheckpointStore (checkpoint.go) and resume an entirely new run from a
// persisted checkpoint (Config.ResumeFrom). A failed Send ends the run with
// its error.
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
	// Exchange selects the transport messages move over
	// (NewTCPExchangeFactory). Nil uses the in-process transport.
	Exchange ExchangeFactory
	// CheckpointEvery > 0 snapshots the run state (next inboxes plus merged
	// stats) into CheckpointStore at every Nth barrier.
	CheckpointEvery int
	// CheckpointStore receives barrier snapshots; required when
	// CheckpointEvery > 0.
	CheckpointStore CheckpointStore
	// ResumeFrom, when non-nil, loads the latest snapshot from the store and
	// resumes the run from that barrier instead of starting at Init. An
	// empty store falls back to a fresh start.
	ResumeFrom CheckpointStore
	// AsyncExchange moves the run loop's three policy points (loop.go) from
	// stepped to pipelined: a delivered frame is enqueued at its destination
	// at once instead of staged for the next superstep, a worker ships a
	// batch mid-burst as soon as its destination goes idle instead of only
	// when its inbox is drained, and a worker takes what it sent itself
	// back one chunk at a time, newest first, ahead of peers' frames, so the
	// run goes depth first and a capped run meets its cap early. Final
	// counts are bit-identical to strict mode for programs whose results are
	// independent of message-processing order. With no
	// supersteps left, checkpoints are taken at induced pauses.
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
	// resume events). Nil disables observation entirely; every hook is a
	// nil-receiver no-op, and no hook runs per message, so the compute hot
	// path is unaffected either way.
	Observer *obs.Observer

	// asyncFlushEvery is the pipelined size trigger: once one burst has
	// sent this many messages since its last such flush, a worker ships
	// every batch holding at least this many. 0 means
	// defaultAsyncFlushEvery; only this package's tests set it, to force
	// frame counts a small workload would not otherwise reach.
	asyncFlushEvery int
}

// ErrAborted wraps the error passed to Context.Abort.
var ErrAborted = errors.New("bsp: computation aborted")

// Snapshotter is an optional Program extension for programs carrying state
// outside the BSP inboxes — accumulators, RNG streams, local heuristic
// views. When the Program implements it, that state rides along every
// barrier snapshot and is restored together with the engine's own state on
// a resume, so program-side metrics stay exactly-once across a stop and a
// resume.
//
// Both methods are only called between supersteps (at barriers), never
// concurrently with Init or Process.
type Snapshotter interface {
	// SnapshotState returns an opaque encoding of the program's barrier
	// state.
	SnapshotState() ([]byte, error)
	// RestoreState replaces the program's state with a previously snapshot
	// one: data is what SnapshotState returned, or nil when the snapshot
	// carries no program state. A checkpoint is read from outside the
	// program, so RestoreState refuses data it cannot use, such as another
	// run's.
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
	done    <-chan struct{} // the run's context's
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

// Stopped is the stop test: an abort is latched or the run's context is done
// (canceled or past its deadline). Polling the context costs a channel
// select, so a loop polls every 256 items: the inbox delivery per message, and
// an Init that expands what it seeds per seed.
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
	}
	return nil
}

func newRunStats(k int) *RunStats {
	return &RunStats{
		WorkerTime:     make([]time.Duration, k),
		WorkerMessages: make([]int64, k),
		Counters:       map[string]int64{},
	}
}

// load points the run at store's latest snapshot: stats, queues, and the
// program's own state (load accumulators, RNGs, …) all come from the same
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
		return false, fmt.Errorf("%w: snapshot has %d workers, config has %d", ErrCorruptCheckpoint, len(snap.Stats.WorkerTime), k)
	}
	if r.snapper != nil {
		if err := r.snapper.RestoreState(snap.Prog); err != nil {
			return false, fmt.Errorf("restoring program state: %w", err)
		}
	}
	r.stats, r.restored = &snap.Stats, true
	r.step.Store(int64(snap.Step))
	for w, in := range snap.inboxRows(k) {
		r.workers[w].queue = in
	}
	return true, nil
}

// RunContext is Run with cancellation: the run stops at the next barrier (or
// message boundary within a superstep) once ctx is done, and ctx deadlines
// bound the transport's network operations.
//
// It is the shell the loop runs in: validate, resume from a persisted
// checkpoint if asked, build the transport, run the loop, and report the
// run's start and end to the observer.
func RunContext[M any](ctx context.Context, cfg Config, prog Program[M]) (rstats *RunStats, rerr error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	r := newRun(cfg, prog)
	if cfg.ResumeFrom != nil {
		resumeStart := time.Now()
		resumed, err := r.load(cfg.ResumeFrom)
		if err != nil {
			return nil, fmt.Errorf("bsp: resume: %w", err)
		}
		if resumed { // an empty store is a fresh start
			cfg.Observer.Resumed(int(r.step.Load()), time.Since(resumeStart))
		}
	}

	cfg.Observer.RunStarted(cfg.Workers, int(r.step.Load()))
	defer func() {
		cfg.Observer.RunEnded(rstats.Supersteps, rstats.MessagesTotal, rstats.Counters,
			rstats.WorkerTime, rstats.WorkerMessages, rerr)
	}()
	t, err := newTransport(ctx, cfg.Exchange, &r.cfg, r.hooks())
	if err != nil {
		return r.stats, err
	}
	r.transport = t
	err = r.drive(ctx)
	return r.stats, err
}
