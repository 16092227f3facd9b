package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"psgl/internal/graph"
)

// workloadDef is one workload: its inputs, the program mode it drives, and
// why it is in the benchmark. README.md carries the longer argument.
type workloadDef struct {
	Name string
	Why  string
	// Graph is the Chung–Lu spec and GraphSeed its generator seed. The graph
	// is a fixed dataset of the workload, like the paper's real-world graphs:
	// op time varied by 13 % (interquartile) between graphs of one spec drawn
	// from different seeds, and by 10 % between random partitions of one
	// graph, more than the rows could then resolve. EngineSeed, the seed of
	// the engine's partition and randomized strategies, is fixed for the same
	// reason. -seed drives everything else: the order of queries and of the
	// patterns within a listing op, and the update batches.
	Graph      graphSpec
	GraphSeed  int64
	EngineSeed int64
	// Workers is the engine worker count per run or per query.
	Workers int

	// Listing workloads: one op lists Patterns in sequence; ops alternate
	// between the strict-barrier loop (op) and AsyncExchange (op2). TCP puts
	// the exchange on loopback sockets.
	Patterns []string
	TCP      bool

	// Serving workloads: a resident server behind a loopback listener,
	// Clients closed-loop query clients (op); with Updates, one more client
	// posts update batches back to back (op2) beside two standing queries.
	// Without Updates op2 is the stream queries' time to first line.
	Serve       bool
	Updates     bool
	Clients     int
	MaxInFlight int

	// OpTail and Op2Tail are the percentiles op_tail_ms and op2_tail_ms
	// report on this workload.
	OpTail, Op2Tail float64
}

// Graph sizes were chosen on the 2-core reference box so that a run of 15 s
// holds enough operations for a steady median; README.md has the measured op
// times behind each choice.
func workloads() []workloadDef {
	nproc := runtime.NumCPU()
	return []workloadDef{
		{
			Name:      "list-compute",
			Why:       "in-process listing of pg1-pg3: expansion is nearly all of the wall, per-run set-up and the wire do nothing, so only kernel and pruning work may move it",
			Graph:     graphSpec{15000, 75000, 2.2},
			GraphSeed: 1, EngineSeed: 1,
			Workers:  nproc,
			Patterns: []string{"pg1", "pg2", "pg3"},
			OpTail:   0.75, Op2Tail: 0.75,
		},
		{
			Name:      "list-wire",
			Why:       "message-heavy pg2 on a high-skew graph over loopback TCP with 4 workers, strict and async alternating: frame encode, socket, decode and barrier or credit dominate as far as the repo allows",
			Graph:     graphSpec{10000, 50000, 1.8},
			GraphSeed: 1, EngineSeed: 1,
			Workers:  4,
			Patterns: []string{"pg2"},
			TCP:      true,
			OpTail:   0.75, Op2Tail: 0.75,
		},
		{
			Name:      "serve-short",
			Why:       "closed-loop short count and limit-bounded stream queries against a resident server: per-query rebuild of graph-scoped state is a large share, expansion and exchange a small one",
			Graph:     graphSpec{40000, 120000, 2.5},
			GraphSeed: 1, EngineSeed: 1,
			Workers:     2,
			Serve:       true,
			Clients:     nproc,
			MaxInFlight: 2,
			OpTail:      0.95, Op2Tail: 0.95,
		},
		{
			Name:      "serve-update",
			Why:       "the same query mix beside back-to-back 4-edge update batches and two standing queries: overlay apply, snapshot, fingerprint, anchored delta runs, publish and plan invalidation compete with reads",
			Graph:     graphSpec{40000, 120000, 2.5},
			GraphSeed: 1, EngineSeed: 1,
			Workers:     2,
			Serve:       true,
			Updates:     true,
			Clients:     max(1, nproc-1),
			MaxInFlight: 2,
			OpTail:      0.95, Op2Tail: 0.90,
		},
	}
}

func findWorkload(defs []workloadDef, name string) (workloadDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

// inputs are the seeds every generated input of a run derives from.
type inputs struct {
	querySeed  int64
	updateSeed int64
}

func deriveInputs(seed int64) inputs {
	return inputs{
		querySeed:  deriveSeed(seed, "queries"),
		updateSeed: deriveSeed(seed, "updates"),
	}
}

// recorder collects latency samples by role and counts correctness checks.
type recorder struct {
	mu        sync.Mutex
	lat       map[string][]float64 // role → milliseconds
	attempted int
	failed    int
	failures  []string
}

func newRecorder() *recorder { return &recorder{lat: map[string][]float64{}} }

func (r *recorder) add(role string, d time.Duration) {
	r.mu.Lock()
	r.lat[role] = append(r.lat[role], float64(d.Nanoseconds())/1e6)
	r.mu.Unlock()
}

// check counts one verified output; a false ok is a failed operation.
func (r *recorder) check(ok bool, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if ok {
		return
	}
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *recorder) samples(role string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]float64(nil), r.lat[role]...)
}

// merge folds another recorder's check counts (not its samples) into r.
func (r *recorder) merge(o *recorder) {
	o.mu.Lock()
	attempted, failed, failures := o.attempted, o.failed, append([]string(nil), o.failures...)
	o.mu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted += attempted
	r.failed += failed
	for _, f := range failures {
		if len(r.failures) < 10 {
			r.failures = append(r.failures, f)
		}
	}
}

// instance is one set-up workload: its own graph and, for serve-*, its own
// server.
type instance interface {
	graph() *graph.Graph
	// goldenPatterns are the patterns whose full counts the checks need.
	goldenPatterns() []string
	setExpected(counts map[string]int64)
	// warm runs each kind of operation once, untimed, and checks it.
	warm(rec *recorder)
	// loop drives the closed loop for d, recording op and op2 samples, and
	// returns how long each kind of operation had to run in: the whole
	// window where they run side by side, its own share where they
	// alternate. tr is nil in the untraced pass.
	loop(d time.Duration, rec *recorder, tr *tracer) (opWindow, op2Window time.Duration)
	// finish runs the end-of-workload checks and returns per-layer values
	// observed on the workload's own server, if it has one.
	finish(rec *recorder) map[string]float64
	close()
}

func setupInstance(def workloadDef, in inputs) (instance, error) {
	if def.Serve {
		return setupServe(def, in)
	}
	return setupList(def, in)
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed      int64
	seconds   float64
	trace     bool
	spansPath string
	setupReps int
	// benchtime is the -test.benchtime of the engine's hot-path
	// microbenchmarks in the traced pass.
	benchtime string
}

// report is what one (workload, pass) produced.
type report struct {
	Workload  string
	Seed      int64
	Trace     bool
	Seconds   float64 // timed window actually measured
	Metrics   *metricSet
	Attempted int
	Failed    int
	Failures  []string
	OracleS   float64
	Samples   map[string]int // role → sample count
	// OpTail and Op2Tail are the workload's tail percentiles.
	OpTail, Op2Tail float64
}

func (r *report) correct() bool { return r.Failed == 0 && r.Attempted > 0 }

func (r *report) decls() []decl {
	if r.Trace {
		return perLayer
	}
	return endToEnd
}

// runWorkload sets the workload up (several times, for a steady setup_s),
// looks up or computes the oracle counts, warms up, and runs either the
// untraced pass (end-to-end metrics) or the traced pass (per-layer metrics).
func runWorkload(def workloadDef, cfg runConfig, gd *golden, out io.Writer) (*report, error) {
	in := deriveInputs(cfg.seed)
	rep := &report{Workload: def.Name, Seed: cfg.seed, Trace: cfg.trace, Metrics: newMetricSet(),
		OpTail: def.OpTail, Op2Tail: def.Op2Tail}
	rec := newRecorder()
	sampled := rec // the recorder whose samples the report counts

	var inst instance
	var setups []float64
	for i := 0; i < cfg.setupReps; i++ {
		if inst != nil {
			inst.close()
		}
		start := time.Now()
		var err error
		if inst, err = setupInstance(def, in); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", def.Name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer inst.close()
	rep.Metrics.setMedian("setup_s", setups)

	counts, oracle, err := gd.expect(def.Graph, def.GraphSeed, inst.graph(), inst.goldenPatterns())
	if err != nil {
		return nil, err
	}
	rep.OracleS = oracle.Seconds()
	inst.setExpected(counts)
	inst.warm(rec)

	if !cfg.trace {
		untracedPass(rep, def, cfg, inst, rec)
	} else if sampled, err = tracedPass(rep, def, cfg, in, inst, rec, out); err != nil {
		return nil, err
	}

	rep.Attempted, rep.Failed, rep.Failures = rec.attempted, rec.failed, rec.failures
	rep.Samples = map[string]int{"op": len(sampled.samples("op")), "op2": len(sampled.samples("op2"))}
	if miss := rep.Metrics.missing(rep.decls()); len(miss) > 0 {
		return nil, fmt.Errorf("%s: no value for %s", def.Name, strings.Join(miss, ", "))
	}
	return rep, nil
}

// untracedPass measures the timed window with nothing recorded but latencies:
// the end-to-end rows.
func untracedPass(rep *report, def workloadDef, cfg runConfig, inst instance, rec *recorder) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	stop := make(chan struct{})
	rss := sampleRSS(stop)
	start := time.Now()
	opWindow, op2Window := inst.loop(time.Duration(cfg.seconds*float64(time.Second)), rec, nil)
	rep.Seconds = time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	close(stop)
	rep.Metrics.setMedian("rss_mb", <-rss)
	inst.finish(rec)
	endToEndMetrics(rep.Metrics, def, rec, opWindow.Seconds(), op2Window.Seconds(), float64(m1.TotalAlloc-m0.TotalAlloc))
}

// tracedPass runs a short untraced pass (the reference the traced pass's
// primary metric is compared with), the traced pass of the same length, and
// the layer battery in the rest of the window: the per-layer rows. It returns
// the traced pass's recorder; its check counts are folded into rec.
func tracedPass(rep *report, def workloadDef, cfg runConfig, in inputs, inst instance, rec *recorder, out io.Writer) (*recorder, error) {
	pass := time.Duration(cfg.seconds * 0.25 * float64(time.Second))
	ref := newRecorder()
	inst.loop(pass, ref, nil)
	rec.merge(ref)
	tr := newTracer()
	traced := newRecorder()
	start := time.Now()
	inst.loop(pass, traced, tr)
	rep.Seconds = time.Since(start).Seconds()
	rec.merge(traced)
	observed := inst.finish(rec)

	spans := tr.snapshot()
	rep.Metrics.set("trace.coverage", coverage(spans))
	base, with := median(ref.samples("op")), median(traced.samples("op"))
	rep.Metrics.set("trace.overhead_pct", (with-base)/base*100)
	printSelfTimes(out, def.Name, spans)
	if err := writeSpans(cfg.spansPath, spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "%s: %d spans written to %s\n", def.Name, len(spans), cfg.spansPath)

	if err := layerBattery(rep.Metrics, def, in, inst.graph(), rec, cfg.benchtime); err != nil {
		return nil, fmt.Errorf("%s: layer battery: %w", def.Name, err)
	}
	for name, v := range observed {
		rep.Metrics.set(name, v)
	}
	return traced, nil
}

// endToEndMetrics derives the user-visible rows from the recorded samples.
func endToEndMetrics(ms *metricSet, def workloadDef, rec *recorder, opWindow, op2Window, allocBytes float64) {
	op, op2 := sortedCopy(rec.samples("op")), sortedCopy(rec.samples("op2"))
	ms.setMedian("op_p50_ms", op)
	ms.setMedian("op2_p50_ms", op2)
	ms.set("op_tail_ms", quantile(op, def.OpTail))
	ms.set("op2_tail_ms", quantile(op2, def.Op2Tail))
	ms.set("ops_per_s", float64(len(op))/opWindow)
	ms.set("op2_per_s", float64(len(op2))/op2Window)
	// On serve-short op2 is a second timing of the stream queries already
	// counted in op, not more operations.
	ops := len(op) + len(op2)
	if def.Serve && !def.Updates {
		ops = len(op)
	}
	ms.set("alloc_mb_per_op", allocBytes/1e6/float64(ops))
}

// residentMB reads the process's resident set from /proc/self/statm, or what
// the Go runtime holds from the OS where there is no /proc.
func residentMB() float64 {
	if data, err := os.ReadFile("/proc/self/statm"); err == nil {
		if fields := strings.Fields(string(data)); len(fields) > 1 {
			if pages, err := strconv.ParseFloat(fields[1], 64); err == nil {
				return pages * float64(os.Getpagesize()) / 1e6
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys-m.HeapReleased) / 1e6
}

// sampleRSS samples the resident set every 50 ms until stop is closed and
// sends the samples when it ends.
func sampleRSS(stop <-chan struct{}) <-chan []float64 {
	out := make(chan []float64, 1)
	go func() {
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		samples := []float64{residentMB()}
		for {
			select {
			case <-tick.C:
				samples = append(samples, residentMB())
			case <-stop:
				out <- samples
				return
			}
		}
	}()
	return out
}

// printSelfTimes prints per-layer self time of the traced pass, largest
// first, with each layer's share of the operations' wall time.
func printSelfTimes(out io.Writer, workload string, spans []span) {
	self := selfTimes(spans)
	var wall time.Duration
	for _, s := range spans {
		if s.Parent < 0 {
			wall += time.Duration(s.EndNS - s.StartNS)
		}
	}
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(out, "%s: self time by layer over %v of traced operations\n", workload, wall.Round(time.Millisecond))
	for _, name := range names {
		fmt.Fprintf(out, "  %-26s %12v %6.1f%%\n", name, self[name].Round(time.Microsecond), 100*float64(self[name])/float64(wall))
	}
}
