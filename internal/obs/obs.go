// Package obs is the observability layer of the BSP/PSgL stack: a
// zero-dependency (stdlib-only) metrics and trace-event subsystem threaded
// through bsp → core → psgl → the CLIs.
//
// Distributed subgraph systems live or die by visibility into per-round
// communication and intermediate-result volume (Chen et al.'s pipelined
// communication analysis and Ren et al.'s robustness instrumentation both
// hinge on per-round signals); this package provides exactly those signals
// without touching the per-message hot path:
//
//   - Counters: per-worker and per-superstep aggregates — messages processed
//     and produced, wire bytes and frames, checkpoint encode durations,
//     failed sends. All counter
//     updates are atomic adds at barrier or frame granularity; nothing runs
//     per message.
//   - Trace: an ordered stream of structured events (superstep start/end,
//     exchange, failed send, checkpoint save, resume, abort, run end) emitted to a pluggable Sink — NopSink (default), Ring (tests),
//     JSONL (files, `psgl-bench -trace`).
//   - Endpoints: an expvar + net/http/pprof debug server (http.go) and a
//     human-readable end-of-run report (report.go).
//
// A nil *Observer is valid everywhere and disables the layer entirely: every
// hook is a nil-receiver no-op, so the engine's steady-state expansion
// remains allocation-free per message (pinned by the AllocsPerRun tests).
//
// Counters fall into two exactness classes across a stop and a resume (the
// DESIGN.md §9 matrix): *logical* counters mirrored from the engine's
// RunStats (Counters, worker loads) ride barrier snapshots and are
// exactly-once — a resumed run reports them bit-identical to a clean run —
// while *physical* counters (wire bytes, frames, failed sends) count what
// this process did on the hardware, and are monotonic.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// EventType enumerates the trace points of a BSP run.
type EventType uint8

const (
	// EventRunStart opens a run's trace; Step is the starting superstep
	// (non-zero when resuming from a checkpoint).
	EventRunStart EventType = iota + 1
	// EventResume records a cross-run resume from a persisted checkpoint.
	EventResume
	// EventStepStart opens superstep Step.
	EventStepStart
	// EventStepEnd closes superstep Step's compute phase: Dur is the slowest
	// worker's compute time, Messages the number of messages produced.
	EventStepEnd
	// EventExchange records a completed message exchange (the barrier's
	// communication phase): Dur is the exchange wall time.
	EventExchange
	// EventRetry records one failed frame Send (Err), which ends the run.
	EventRetry
	// EventCheckpointSave records a barrier snapshot: Bytes encoded, Dur to
	// encode and store.
	EventCheckpointSave
	// EventAbort records a Program-initiated abort (Err).
	EventAbort
	// EventRunEnd closes the trace: Dur is the run's wall time, Messages the
	// total message count, Err the run error if any.
	EventRunEnd
)

var eventNames = map[EventType]string{
	EventRunStart:       "run_start",
	EventResume:         "resume",
	EventStepStart:      "step_start",
	EventStepEnd:        "step_end",
	EventExchange:       "exchange",
	EventRetry:          "retry",
	EventCheckpointSave: "checkpoint_save",
	EventAbort:          "abort",
	EventRunEnd:         "run_end",
}

// String returns the snake_case event name used in JSONL traces.
func (t EventType) String() string {
	if s, ok := eventNames[t]; ok {
		return s
	}
	return "unknown"
}

// Event is one structured trace record. Seq orders events totally within an
// Observer; unused numeric fields are zero.
type Event struct {
	// Seq is the 1-based emission order within the Observer.
	Seq uint64
	// Elapsed is the time since the Observer was created.
	Elapsed time.Duration
	// Type discriminates the record.
	Type EventType
	// Step is the superstep the event belongs to (-1 when not applicable).
	Step int
	// Dur is the duration of the traced operation, when timed.
	Dur time.Duration
	// Messages counts messages for step/exchange/run events.
	Messages int64
	// Bytes sizes checkpoint saves.
	Bytes int64
	// Err carries the error text for failure events.
	Err string
	// Tag identifies the run this event belongs to when many observers share
	// one sink — the query service stamps per-query trace IDs here. Empty
	// for untagged (single-run) observers.
	Tag string
}

// Sink receives trace events. Emit is called from the BSP run loop (one
// goroutine) and must not retain the Event's address; implementations used
// across workers must be safe for concurrent use.
type Sink interface {
	Emit(Event)
}

// NopSink discards every event. It is the default sink: with it, emitting is
// a few nanoseconds and allocation-free, so tracing can stay attached in
// production runs.
type NopSink struct{}

// Emit implements Sink by doing nothing.
func (NopSink) Emit(Event) {}

// Ring is a fixed-capacity in-memory sink retaining the most recent events —
// the sink for tests and post-mortem inspection.
type Ring struct {
	mu     sync.Mutex
	events []Event
	next   int
	filled bool
}

// NewRing returns a ring sink retaining the last n events (n >= 1).
func NewRing(n int) *Ring {
	if n < 1 {
		n = 1
	}
	return &Ring{events: make([]Event, n)}
}

// Emit implements Sink.
func (r *Ring) Emit(ev Event) {
	r.mu.Lock()
	r.events[r.next] = ev
	r.next++
	if r.next == len(r.events) {
		r.next = 0
		r.filled = true
	}
	r.mu.Unlock()
}

// Events returns the retained events in emission order.
func (r *Ring) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.filled {
		return append([]Event(nil), r.events[:r.next]...)
	}
	out := make([]Event, 0, len(r.events))
	out = append(out, r.events[r.next:]...)
	out = append(out, r.events[:r.next]...)
	return out
}

// StepMetrics is the record of one executed superstep (replayed supersteps
// appear once per execution, so the slice is a physical log, not a logical
// one).
type StepMetrics struct {
	// Step is the superstep number.
	Step int
	// Compute is the slowest worker's compute time (the barrier wait).
	Compute time.Duration
	// WorkerCompute is each worker's compute time.
	WorkerCompute []time.Duration
	// Processed is the number of messages delivered to Programs this step.
	Processed int64
	// Produced is the number of messages the step emitted.
	Produced int64
	// Exchange is the wall time of the step's message exchange.
	Exchange time.Duration
}

// Observer collects a run's metrics and forwards its trace events to a Sink.
// One Observer observes one run at a time (the engine serializes its hook
// calls at barriers); the frame/byte counters are safe for the exchange's
// concurrent sender/receiver goroutines. A nil *Observer is a valid no-op.
type Observer struct {
	sink  Sink
	start time.Time
	seq   atomic.Uint64
	// tag is stamped into every emitted event (SetTag; set before the run
	// starts, read by the emit path).
	tag string

	// Physical transport counters (monotonic; replays included).
	wireFramesSent atomic.Int64
	wireFramesRecv atomic.Int64
	bytesSent      atomic.Int64
	bytesRecv      atomic.Int64

	// Physical compression counters: exact bytes written for front-coded
	// frame trains vs what the same batches would have cost flat. Monotonic
	// (replays included); the logical exactly-once mirror lives in the
	// engine's compressed_* RunStats counters.
	compressedFrames   atomic.Int64
	compressedBytes    atomic.Int64
	compressedRawBytes atomic.Int64

	// Physical fault-layer counters.
	retries         atomic.Int64 // failed frame Sends
	checkpointSaves atomic.Int64
	checkpointBytes atomic.Int64
	checkpointNanos atomic.Int64
	aborts          atomic.Int64
	setupAborts     atomic.Int64

	// Census-engine counters (fed by internal/esu at end of run: workers
	// accumulate locally and flush once, so nothing here is per-subgraph).
	censusSubgraphs atomic.Int64
	canonHits       atomic.Int64
	canonMisses     atomic.Int64

	// Async-exchange counters (fed by the pipelined message plane at frame
	// and termination-scan granularity — never per message).
	creditRounds      atomic.Int64
	earlyExpansions   atomic.Int64
	framesInFlightMax atomic.Int64

	mu    sync.Mutex
	steps []StepMetrics
	// Logical end-of-run state, mirrored from the engine at RunEnded (these
	// roll back with barrier snapshots inside the engine, so they are
	// exactly-once).
	finalCounters  map[string]int64
	supersteps     int
	messagesTotal  int64
	workerTime     []time.Duration
	workerMessages []int64
	workerLoads    []float64
	runErr         string
	ended          bool
}

// New returns an Observer emitting to sink; a nil sink means NopSink.
func New(sink Sink) *Observer {
	if sink == nil {
		sink = NopSink{}
	}
	return &Observer{sink: sink, start: time.Now()}
}

// SetTag sets the run identifier stamped into every event this Observer
// emits — e.g. a per-query trace ID when a server funnels many short runs
// into one shared sink. Call it before the observed run starts; it is not
// synchronized against in-flight emits.
func (o *Observer) SetTag(tag string) {
	if o == nil {
		return
	}
	o.tag = tag
}

// Tag returns the identifier set by SetTag.
func (o *Observer) Tag() string {
	if o == nil {
		return ""
	}
	return o.tag
}

// emit stamps and forwards one event.
func (o *Observer) emit(ev Event) {
	ev.Seq = o.seq.Add(1)
	ev.Elapsed = time.Since(o.start)
	ev.Tag = o.tag
	o.sink.Emit(ev)
}

// RunStarted opens the trace. startStep is non-zero when resuming.
func (o *Observer) RunStarted(workers, startStep int) {
	if o == nil {
		return
	}
	o.emit(Event{Type: EventRunStart, Step: startStep, Messages: int64(workers)})
}

// Resumed records a cross-run resume from a persisted checkpoint.
func (o *Observer) Resumed(step int, d time.Duration) {
	if o == nil {
		return
	}
	o.emit(Event{Type: EventResume, Step: step, Dur: d})
}

// StepStarted opens superstep step.
func (o *Observer) StepStarted(step int) {
	if o == nil {
		return
	}
	o.emit(Event{Type: EventStepStart, Step: step})
}

// StepComputed closes superstep step's compute phase: per-worker compute
// times, messages delivered (processed) and emitted (produced).
func (o *Observer) StepComputed(step int, workerTimes []time.Duration, processed, produced int64) {
	if o == nil {
		return
	}
	var slowest time.Duration
	for _, t := range workerTimes {
		if t > slowest {
			slowest = t
		}
	}
	o.mu.Lock()
	o.steps = append(o.steps, StepMetrics{
		Step:          step,
		Compute:       slowest,
		WorkerCompute: append([]time.Duration(nil), workerTimes...),
		Processed:     processed,
		Produced:      produced,
	})
	o.mu.Unlock()
	o.emit(Event{Type: EventStepEnd, Step: step, Dur: slowest, Messages: produced})
}

// ExchangeDone records a completed message exchange for step.
func (o *Observer) ExchangeDone(step int, d time.Duration, messages int64) {
	if o == nil {
		return
	}
	o.mu.Lock()
	if n := len(o.steps); n > 0 && o.steps[n-1].Step == step {
		o.steps[n-1].Exchange = d
	}
	o.mu.Unlock()
	o.emit(Event{Type: EventExchange, Step: step, Dur: d, Messages: messages})
}

// ExchangeFailed records one failed frame Send under ordinal step.
func (o *Observer) ExchangeFailed(step int, err error) {
	if o == nil {
		return
	}
	o.retries.Add(1)
	o.emit(Event{Type: EventRetry, Step: step, Err: errText(err)})
}

// CheckpointSaved records a barrier snapshot of `bytes` bytes taking d.
func (o *Observer) CheckpointSaved(step, bytes int, d time.Duration) {
	if o == nil {
		return
	}
	o.checkpointSaves.Add(1)
	o.checkpointBytes.Add(int64(bytes))
	o.checkpointNanos.Add(int64(d))
	o.emit(Event{Type: EventCheckpointSave, Step: step, Bytes: int64(bytes), Dur: d})
}

// Aborted records a Program-initiated abort at step.
func (o *Observer) Aborted(step int, err error) {
	if o == nil {
		return
	}
	o.aborts.Add(1)
	o.emit(Event{Type: EventAbort, Step: step, Err: errText(err)})
}

// RunEnded closes the trace and captures the run's logical end state:
// the merged counters, per-worker times and message counts. These come from
// the engine's RunStats, which barrier snapshots carry, so they are
// exactly-once — a resumed run reports the same values as a clean run.
func (o *Observer) RunEnded(supersteps int, messagesTotal int64, counters map[string]int64,
	workerTime []time.Duration, workerMessages []int64, err error) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.supersteps = supersteps
	o.messagesTotal = messagesTotal
	o.finalCounters = make(map[string]int64, len(counters))
	for k, v := range counters {
		o.finalCounters[k] = v
	}
	o.workerTime = append([]time.Duration(nil), workerTime...)
	o.workerMessages = append([]int64(nil), workerMessages...)
	o.runErr = errText(err)
	o.ended = true
	o.mu.Unlock()
	o.emit(Event{Type: EventRunEnd, Step: supersteps - 1, Messages: messagesTotal, Err: errText(err)})
}

// RecordWorkerLoads captures the engine's per-worker cost-model load units
// (exactly-once: the engine's load accumulators ride barrier snapshots).
func (o *Observer) RecordWorkerLoads(loads []float64) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.workerLoads = append([]float64(nil), loads...)
	o.mu.Unlock()
}

// AddFrameSent counts one outbound transport write of `bytes` bytes (a
// frame, or a train of compressed chunks written together). Safe for
// concurrent use (called from every sending worker).
func (o *Observer) AddFrameSent(bytes int64) {
	if o == nil {
		return
	}
	o.wireFramesSent.Add(1)
	o.bytesSent.Add(bytes)
}

// AddFrameRecv counts one inbound transport frame of `bytes` bytes.
func (o *Observer) AddFrameRecv(bytes int64) {
	if o == nil {
		return
	}
	o.wireFramesRecv.Add(1)
	o.bytesRecv.Add(bytes)
}

// AddCompressedFrame counts one front-coded send: the bytes the frame train
// actually put on the wire and the flat-equivalent bytes the same batch would
// have cost. Their ratio is the exact wire-level compression ratio.
func (o *Observer) AddCompressedFrame(wireBytes, rawBytes int64) {
	if o == nil {
		return
	}
	o.compressedFrames.Add(1)
	o.compressedBytes.Add(wireBytes)
	o.compressedRawBytes.Add(rawBytes)
}

// AddSetupAbort counts a transport setup (TCP mesh accept/dial) torn down
// early by context cancellation instead of completing or timing out.
func (o *Observer) AddSetupAbort() {
	if o == nil {
		return
	}
	o.setupAborts.Add(1)
}

// AddCensus records one completed motif census: subgraphs enumerated and the
// canonical-form memo cache's hit/miss totals. Called once per run with the
// workers' summed local counters — never from the enumeration hot path.
func (o *Observer) AddCensus(subgraphs, canonHits, canonMisses int64) {
	if o == nil {
		return
	}
	o.censusSubgraphs.Add(subgraphs)
	o.canonHits.Add(canonHits)
	o.canonMisses.Add(canonMisses)
}

// AddCreditRound counts one termination-detector scan by the run loop's
// coordinator (each scan checks worker idleness and outstanding credit; a
// strict superstep takes a few, an async run as many as it is nudged for).
func (o *Observer) AddCreditRound() {
	if o == nil {
		return
	}
	o.creditRounds.Add(1)
}

// AddEarlyExpansion counts one frame delivered to a worker that was already
// expanding a backlog — the async plane's pipelining win, where expansion
// overlaps communication instead of waiting at a barrier.
func (o *Observer) AddEarlyExpansion() {
	if o == nil {
		return
	}
	o.earlyExpansions.Add(1)
}

// ObserveFramesInFlight folds one observation of the run loop's
// outstanding-frame gauge into its high-water mark. Safe for concurrent use
// (called from every worker's flush path).
func (o *Observer) ObserveFramesInFlight(cur int64) {
	if o == nil {
		return
	}
	for {
		peak := o.framesInFlightMax.Load()
		if cur <= peak || o.framesInFlightMax.CompareAndSwap(peak, cur) {
			return
		}
	}
}

// Steps returns the physical superstep log (replays appear once per
// execution).
func (o *Observer) Steps() []StepMetrics {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]StepMetrics(nil), o.steps...)
}

// Counters returns the final merged engine counters captured at RunEnded
// (the exactly-once class), or nil before the run ends.
func (o *Observer) Counters() map[string]int64 {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make(map[string]int64, len(o.finalCounters))
	for k, v := range o.finalCounters {
		out[k] = v
	}
	return out
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
