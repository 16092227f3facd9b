package main

import (
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"testing"
	"time"

	"psgl/internal/bloom"
	"psgl/internal/bsp"
	"psgl/internal/core"
	"psgl/internal/delta"
	"psgl/internal/graph"
	"psgl/internal/obs"
	"psgl/internal/pattern"
	"psgl/internal/serve"
	"psgl/internal/stats"
)

// The layer battery times each layer from outside, in isolation, through the
// package's public calls, with the workload's own graph, worker count,
// exchange and seeds. It is the same code on every workload, so a per-layer
// row differs between workloads only through those inputs. README.md lists
// which end-to-end metric each row is expected to move, and where.

// medianMS runs fn reps times and returns the median wall time in ms.
func medianMS(reps int, fn func()) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		start := time.Now()
		fn()
		xs[i] = float64(time.Since(start).Nanoseconds()) / 1e6
	}
	return median(xs)
}

// perCallUS runs fn in batches of n calls and returns the median time of one
// call in µs.
func perCallUS(reps, n int, fn func()) float64 {
	return medianMS(reps, func() {
		for i := 0; i < n; i++ {
			fn()
		}
	}) * 1e3 / float64(n)
}

func layerBattery(ms *metricSet, def workloadDef, in inputs, g *graph.Graph, rec *recorder, benchtime string) error {
	setupLayers(ms, def, g)
	graphScopedLayers(ms, def, g)
	planLayers(ms, g)
	if err := referenceListing(ms, def, g); err != nil {
		return err
	}
	hotpathLayers(ms, benchtime)
	if err := exchangeLayers(ms, def); err != nil {
		return err
	}
	if err := observerOverhead(ms, def, g); err != nil {
		return err
	}
	return serveLayers(ms, def, in, g, rec)
}

// setupLayers times what every workload's set-up is made of.
func setupLayers(ms *metricSet, def workloadDef, g *graph.Graph) {
	ms.set("gen.chunglu_ms", medianMS(3, func() { def.Graph.generate(def.GraphSeed) }))
	var edges [][2]graph.VertexID
	g.Edges(func(u, v graph.VertexID) bool {
		edges = append(edges, [2]graph.VertexID{u, v})
		return true
	})
	ms.set("graph.build_ms", medianMS(3, func() { graph.FromEdges(g.NumVertices(), edges) }))
	ms.set("graph.fingerprint_ms", medianMS(7, func() { g.Fingerprint() }))
	ms.set("graph.degree_histogram_ms", medianMS(7, func() { g.DegreeHistogram() }))
	ms.set("serve.new_ms", medianMS(7, func() { serve.New(g, serve.Config{Workers: def.Workers}) }))
}

// unlinkedPair returns two non-adjacent vertices of degree ≥ 2: pinned to a
// pattern edge they make a seed the engine prunes at seeding time.
func unlinkedPair(g *graph.Graph) (graph.VertexID, graph.VertexID) {
	var first graph.VertexID = -1
	for v := 0; v < g.NumVertices(); v++ {
		u := graph.VertexID(v)
		if g.Degree(u) < 2 {
			continue
		}
		if first < 0 {
			first = u
		} else if !g.HasEdge(first, u) {
			return first, u
		}
	}
	return 0, 1
}

// graphScopedLayers times the state core.RunContext rebuilds on every run
// although it depends only on the graph, the worker count and the seed — and
// their sum as seen through the engine, a run whose only seed is pruned.
func graphScopedLayers(ms *metricSet, def workloadDef, g *graph.Graph) {
	ms.set("graph.ordered_ms", medianMS(7, func() { graph.NewOrdered(g) }))
	ms.set("graph.identity_ordered_ms", medianMS(7, func() { graph.NewIdentityOrdered(g) }))
	ms.set("bloom.build_ms", medianMS(7, func() { bloom.BuildEdgeIndex(g, 10) }))
	ix := bloom.BuildEdgeIndex(g, 10)
	ms.set("bloom.bytes", float64(ix.SizeBytes()))
	ms.set("bloom.false_positive_rate", ix.FalsePositiveRate())
	ms.set("graph.bitmap_index_ms", medianMS(7, func() { graph.NewBitmapIndex(g, 0) }))
	ms.set("graph.bitmap_bytes", float64(graph.NewBitmapIndex(g, 0).SizeBytes()))
	ms.set("graph.owner_scan_ms", medianMS(7, func() { ownerScan(g, def.Workers, def.EngineSeed) }))

	u, v := unlinkedPair(g)
	opts := core.NewOptions()
	opts.Workers = def.Workers
	opts.Seed = def.EngineSeed
	opts.Seeds = []core.Seed{{PatternVertices: []int{0, 1}, DataVertices: []graph.VertexID{u, v}}}
	ms.set("core.empty_run_ms", medianMS(9, func() {
		core.RunContext(context.Background(), g, pattern.Triangle(), opts)
	}))
}

// planLayers times the query-scoped planning steps a plan-cache hit skips.
func planLayers(ms *metricSet, g *graph.Graph) {
	const src = "edges(0-1,1-2,2-0,0-3,1-3)" // the diamond, spelled out
	p, _ := pattern.Parse(src)
	planned := p.BreakAutomorphisms()
	dist := stats.FromHistogram(g.DegreeHistogram())
	ms.set("pattern.parse_us", perCallUS(7, 200, func() { pattern.Parse(src) }))
	ms.set("pattern.canonical_key_us", perCallUS(7, 200, func() { p.CanonicalKey() }))
	ms.set("pattern.break_automorphisms_us", perCallUS(7, 200, func() { p.BreakAutomorphisms() }))
	ms.set("core.select_initial_us", perCallUS(7, 200, func() { core.SelectInitialVertex(planned, dist) }))
}

// referenceListing lists pg1, pg2 and pg3 once with the workload's engine
// settings under an observer, and reports the engine's own counters and
// timings summed over the three runs.
func referenceListing(ms *metricSet, def workloadDef, g *graph.Graph) error {
	var total core.Stats
	var wall, busy, makespan, compute, exchange time.Duration
	var wireBytes, wireFrames, messages, retries int64
	var loadMax, loadSum float64
	for _, name := range []string{"pg1", "pg2", "pg3"} {
		p, err := pattern.ByName(name)
		if err != nil {
			return err
		}
		opts := core.NewOptions()
		opts.Workers = def.Workers
		opts.Seed = def.EngineSeed
		if def.TCP {
			opts.Exchange = bsp.NewTCPExchangeFactory()
		}
		opts.Observer = obs.New(nil)
		res, err := core.RunContext(context.Background(), g, p, opts)
		if err != nil {
			return fmt.Errorf("reference listing %s: %w", name, err)
		}
		st := res.Stats
		ms.set("core.wall_s."+name, st.WallTime.Seconds())
		wall += st.WallTime
		makespan += st.SimulatedMakespan
		for _, t := range st.WorkerTime {
			busy += t
		}
		for _, l := range st.LoadUnits {
			loadSum += l
			loadMax = max(loadMax, l)
		}
		total.Supersteps += st.Supersteps
		total.GpsiGenerated += st.GpsiGenerated
		total.GpsiProcessed += st.GpsiProcessed
		total.Results += st.Results
		total.PrunedByDegree += st.PrunedByDegree
		total.PrunedByOrder += st.PrunedByOrder
		total.PrunedByIndex += st.PrunedByIndex
		total.PrunedByVerify += st.PrunedByVerify
		total.PrunedByInjectivity += st.PrunedByInjectivity
		total.EdgeIndexQueries += st.EdgeIndexQueries
		total.BitsetAndCandidates += st.BitsetAndCandidates
		total.LoadMakespan += st.LoadMakespan

		snap := opts.Observer.Snapshot()
		wireBytes += snap.BytesSent
		wireFrames += snap.WireFramesSent
		messages += snap.MessagesTotal
		retries += snap.Retries
		for _, step := range snap.Steps {
			compute += step.Compute
			exchange += step.Exchange
		}
	}
	ms.set("core.gpsi_generated", float64(total.GpsiGenerated))
	ms.set("core.gpsi_processed", float64(total.GpsiProcessed))
	ms.set("core.results", float64(total.Results))
	ms.set("core.supersteps", float64(total.Supersteps))
	ms.set("core.gpsi_per_result", float64(total.GpsiGenerated)/float64(total.Results))
	ms.set("core.pruned_by_degree", float64(total.PrunedByDegree))
	ms.set("core.pruned_by_order", float64(total.PrunedByOrder))
	ms.set("core.pruned_by_index", float64(total.PrunedByIndex))
	ms.set("core.pruned_by_verify", float64(total.PrunedByVerify))
	ms.set("core.pruned_by_injectivity", float64(total.PrunedByInjectivity))
	ms.set("core.edge_index_queries", float64(total.EdgeIndexQueries))
	ms.set("core.bitset_and_candidates", float64(total.BitsetAndCandidates))
	ms.set("core.load_makespan", total.LoadMakespan)
	ms.set("core.load_imbalance", loadMax/(loadSum/float64(3*def.Workers)))
	ms.set("core.worker_busy_s", busy.Seconds())
	ms.set("core.expand_ns_per_gpsi", float64(busy.Nanoseconds())/float64(total.GpsiProcessed))
	ms.set("core.simulated_makespan_s", makespan.Seconds())
	ms.set("core.barrier_wait_share", 1-busy.Seconds()/(float64(def.Workers)*wall.Seconds()))
	ms.set("bsp.wire_bytes", float64(wireBytes))
	ms.set("bsp.wire_frames", float64(wireFrames))
	ms.set("bsp.bytes_per_msg", float64(wireBytes)/float64(messages))
	ms.set("bsp.step_compute_s", compute.Seconds())
	ms.set("bsp.step_exchange_s", exchange.Seconds())
	ms.set("bsp.exchange_share", exchange.Seconds()/wall.Seconds())
	ms.set("bsp.retries", float64(retries))
	return nil
}

// hotpathCases are the core.HotpathBenchmarks cases the battery reports.
var hotpathCases = []string{"expand", "expand-sparse-merge", "expand-hub-bitset", "expand-hub-merge",
	"gpsi-wire-roundtrip", "frame-flat-dense", "frame-compressed-dense"}

// hotpathLayers runs the engine's own hot-path microbenchmarks (they build
// their own fixed graph) through testing.Benchmark at the given benchtime.
func hotpathLayers(ms *metricSet, benchtime string) {
	testing.Init() // registers -test.benchtime; a no-op after the first call
	flag.Set("test.benchtime", benchtime)
	byName := map[string]func(*testing.B){}
	for _, hb := range core.HotpathBenchmarks() {
		byName[hb.Name] = hb.Fn
	}
	for _, name := range hotpathCases {
		r := testing.Benchmark(byName[name])
		ms.set("core.hotpath."+name+"_ns", float64(r.T.Nanoseconds())/float64(r.N))
	}
}

// echoMsg is the benchmark's own 72-byte wire message.
type echoMsg struct {
	Hops int32
	Pad  [17]int32
}

func (m *echoMsg) AppendWire(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(m.Hops))
	for _, x := range m.Pad {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(x))
	}
	return dst
}

func (m *echoMsg) DecodeWire(src []byte) ([]byte, error) {
	if len(src) < 72 {
		return nil, fmt.Errorf("echoMsg: %d bytes, want 72", len(src))
	}
	m.Hops = int32(binary.LittleEndian.Uint32(src))
	for i := range m.Pad {
		m.Pad[i] = int32(binary.LittleEndian.Uint32(src[4+4*i:]))
	}
	return src[72:], nil
}

// echoProgram is an all-to-all exchange load with no computation to speak
// of: Init sends fanout messages from every worker to every worker, and each
// delivered message is forwarded to the next worker until it made hops trips.
type echoProgram struct {
	workers, fanout int
	hops            int32
}

func (e echoProgram) Init(ctx *bsp.Context[echoMsg]) {
	for d := 0; d < e.workers; d++ {
		for i := 0; i < e.fanout; i++ {
			ctx.Send(graph.VertexID(d), echoMsg{Hops: 1})
		}
	}
}

func (e echoProgram) Process(ctx *bsp.Context[echoMsg], env bsp.Envelope[echoMsg]) {
	if env.Msg.Hops < e.hops {
		env.Msg.Hops++
		ctx.Send(graph.VertexID((ctx.Worker()+1)%e.workers), env.Msg)
	}
}

// runEcho runs an echo program and returns its wall time and message count.
func runEcho(prog echoProgram, cfg bsp.Config) (time.Duration, int64, error) {
	cfg.Workers = prog.workers
	cfg.Owner = func(v graph.VertexID) int { return int(v) % prog.workers }
	start := time.Now()
	st, err := bsp.RunContext[echoMsg](context.Background(), cfg, prog)
	if err != nil {
		return 0, 0, err
	}
	return time.Since(start), st.MessagesTotal, nil
}

// exchangeLayers times the exchange substrate on echoMsg: the flat and the
// compressed frame codec, a message's trip through the in-process, TCP and
// async-TCP exchanges (the program's trivial compute included), a near-empty
// superstep, an empty TCP mesh, and a barrier checkpoint.
func exchangeLayers(ms *metricSet, def workloadDef) error {
	// A sorted-prefix batch: neighbours differ only in their last words, the
	// shape front coding is for.
	const n = 4096
	batch := make([]bsp.Envelope[echoMsg], n)
	for i := range batch {
		batch[i].Dest = graph.VertexID(i / 64)
		batch[i].Msg.Hops = 3
		for j := range batch[i].Msg.Pad {
			batch[i].Msg.Pad[j] = int32(j)
		}
		batch[i].Msg.Pad[15] = int32(i / 8)
		batch[i].Msg.Pad[16] = int32(i)
	}
	var flat, packed []byte
	ms.set("bsp.frame_encode_ns_per_msg", medianMS(21, func() { flat = bsp.AppendWireFrame(flat[:0], 1, batch) })*1e6/n)
	ms.set("bsp.frame_decode_ns_per_msg", medianMS(21, func() { bsp.DecodeWireFrame[echoMsg](flat[4:]) })*1e6/n)
	ms.set("bsp.compressed_encode_ns_per_msg", medianMS(21, func() { packed = bsp.AppendCompressedFrame(packed[:0], 1, batch) })*1e6/n)
	ms.set("bsp.compressed_decode_ns_per_msg", medianMS(21, func() { bsp.DecodeFrame[echoMsg](packed[4:]) })*1e6/n)
	ms.set("bsp.compressed_ratio", float64(len(flat))/float64(len(packed)))

	k := max(def.Workers, 2)
	load := echoProgram{workers: k, fanout: 40000 / (k * k), hops: 5}
	type cell struct {
		name string
		cfg  bsp.Config
	}
	for _, c := range []cell{
		{"bsp.exchange_local_ns_per_msg", bsp.Config{}},
		{"bsp.exchange_tcp_ns_per_msg", bsp.Config{Exchange: bsp.NewTCPExchangeFactory()}},
		{"bsp.exchange_async_tcp_ns_per_msg", bsp.Config{Exchange: bsp.NewTCPExchangeFactory(), AsyncExchange: true}},
	} {
		var xs []float64
		for i := 0; i < 5; i++ {
			wall, msgs, err := runEcho(load, c.cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", c.name, err)
			}
			xs = append(xs, float64(wall.Nanoseconds())/float64(msgs))
		}
		ms.set(c.name, median(xs))
	}

	const steps = 200
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	ms.set("bsp.barrier_us", medianMS(5, func() {
		_, _, err := runEcho(echoProgram{workers: k, fanout: 1, hops: steps}, bsp.Config{})
		keep(err)
	})*1e3/steps)
	ms.set("bsp.tcp_mesh_setup_ms", medianMS(5, func() {
		_, _, err := runEcho(echoProgram{workers: k}, bsp.Config{Exchange: bsp.NewTCPExchangeFactory()})
		keep(err)
	}))
	observer := obs.New(nil)
	_, _, err := runEcho(load, bsp.Config{CheckpointEvery: 1, CheckpointStore: bsp.NewMemCheckpointStore(), Observer: observer})
	keep(err)
	if firstErr != nil {
		return firstErr
	}
	snap := observer.Snapshot()
	ms.set("bsp.checkpoint_save_ms", snap.CheckpointSaveTime.Seconds()*1e3/float64(snap.CheckpointSaves))
	ms.set("bsp.checkpoint_bytes", float64(snap.CheckpointBytes)/float64(snap.CheckpointSaves))
	return nil
}

// observerOverhead lists pg1 with no observer, a sinkless observer, and a
// JSONL sink writing to io.Discard, interleaved, and reports what each adds.
func observerOverhead(ms *metricSet, def workloadDef, g *graph.Graph) error {
	observers := []func() *obs.Observer{
		func() *obs.Observer { return nil },
		func() *obs.Observer { return obs.New(nil) },
		func() *obs.Observer { return obs.New(obs.NewJSONL(io.Discard)) },
	}
	times := make([][]float64, len(observers))
	for rep := 0; rep < 9; rep++ {
		for i, mk := range observers {
			opts := core.NewOptions()
			opts.Workers = def.Workers
			opts.Seed = def.EngineSeed
			opts.Observer = mk()
			start := time.Now()
			if _, err := core.RunContext(context.Background(), g, pattern.Triangle(), opts); err != nil {
				return err
			}
			times[i] = append(times[i], time.Since(start).Seconds())
		}
	}
	base := median(times[0])
	ms.set("obs.observer_overhead_pct", (median(times[1])-base)/base*100)
	ms.set("obs.jsonl_overhead_pct", (median(times[2])-base)/base*100)
	return nil
}

// serveLayers drives a probe server on the workload's graph with one client:
// where a short query's time goes outside the engine, what streaming and
// queueing add, and the dynamic-graph path piece by piece — an update with
// nobody subscribed, with the two standing queries, and the overlay and
// delta calls standalone.
func serveLayers(ms *metricSet, def workloadDef, in inputs, g *graph.Graph, rec *recorder) error {
	const maxInFlight = 2
	ls, err := startServer(g, serve.Config{Workers: def.Workers, MaxInFlight: maxInFlight, Seed: def.EngineSeed})
	if err != nil {
		return err
	}
	defer ls.close()
	ask := func(q query) (queryResult, error) {
		res := ls.query(q)
		if res.Err != nil || res.Status != http.StatusOK {
			return res, fmt.Errorf("probe %s: status %d: %v", q, res.Status, res.Err)
		}
		return res, nil
	}
	toMS := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

	var pre, first []float64
	var wallSum, latSum float64
	for rep := 0; rep < 7; rep++ {
		for _, q := range serveMix {
			res, err := ask(q)
			if err != nil {
				return err
			}
			if rep == 0 {
				continue // fills the plan cache
			}
			pre = append(pre, toMS(res.Latency)-res.Last.WallMS)
			wallSum += res.Last.WallMS
			latSum += toMS(res.Latency)
			if !q.CountOnly {
				first = append(first, toMS(res.First))
			}
		}
	}
	ms.setMedian("serve.pre_engine_ms", pre)
	ms.set("serve.engine_share", wallSum/latSum)
	ms.setMedian("serve.stream_first_ms", first)

	// Streaming every triangle against counting them: the difference is the
	// per-embedding cost of the NDJSON path.
	var counted, streamed []float64
	lines := 0
	for rep := 0; rep < 5; rep++ {
		c, err := ask(query{Pattern: "triangle", CountOnly: true})
		if err != nil {
			return err
		}
		s, err := ask(query{Pattern: "triangle", Limit: 1 << 30})
		if err != nil {
			return err
		}
		counted, streamed = append(counted, toMS(c.Latency)), append(streamed, toMS(s.Latency))
		lines = len(s.Lines) - 1
		rec.check(int64(lines) == c.Last.Count, "probe: %d streamed triangles, %d counted", lines, c.Last.Count)
	}
	ms.set("serve.stream_us_per_embedding", (median(streamed)-median(counted))*1e3/float64(lines))

	// A burst of 4×MaxInFlight clients: what a query waits beyond its own
	// engine time and the unloaded pre-engine cost.
	var waits []float64
	var wg sync.WaitGroup
	var mu sync.Mutex
	for c := 0; c < 4*maxInFlight; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := ask(query{Pattern: "triangle", CountOnly: true})
			mu.Lock()
			defer mu.Unlock()
			rec.check(err == nil, "%v", err)
			waits = append(waits, toMS(res.Latency)-res.Last.WallMS)
		}()
	}
	wg.Wait()
	ms.set("serve.queue_wait_p50_ms", median(waits)-median(pre))

	st := ls.srv.Stats()
	ms.set("serve.plan_cache_hit_rate", float64(st.Plans.Hits)/float64(st.Plans.Hits+st.Plans.Misses))
	ms.set("serve.plan_cache_misses", float64(st.Plans.Misses))
	ms.set("serve.completed", float64(st.Queries.Completed))
	ms.set("serve.rejected", float64(st.Queries.Rejected))
	ms.set("serve.deadline_exceeded", float64(st.Queries.DeadlineExceeded))
	ms.set("serve.failed", float64(st.Queries.Failed))

	return dynamicLayers(ms, def, in, g, ls, rec)
}

func dynamicLayers(ms *metricSet, def workloadDef, in inputs, g *graph.Graph, ls *liveServer, rec *recorder) error {
	const perPhase = 6
	batches := updateBatches(g, in.updateSeed, 2*perPhase, 4)
	post := func(b graph.Batch) (updateResult, error) {
		res := ls.update(b)
		if res.Err != nil || res.Status != http.StatusOK {
			return res, fmt.Errorf("probe update: status %d: %v", res.Status, res.Err)
		}
		return res, nil
	}

	// Nobody subscribed: apply + snapshot + fingerprint + publish.
	var publish []float64
	for _, b := range batches[:perPhase] {
		res, err := post(b)
		if err != nil {
			return err
		}
		publish = append(publish, float64(res.Latency.Nanoseconds())/1e6)
	}
	ms.setMedian("serve.update_publish_ms", publish)

	// With the two standing queries: the anchored delta runs on top.
	for _, pat := range standingPatterns {
		if _, err := ls.subscribe(pat); err != nil {
			return err
		}
	}
	var lag []float64
	var runs, gained, lost int64
	for _, b := range batches[perPhase:] {
		res, err := post(b)
		if err != nil {
			return err
		}
		for _, d := range res.Body.Deltas {
			runs += int64(d.Runs)
			gained += d.Gained
			lost += d.Lost
		}
		for _, sub := range ls.subs {
			seen := sub.waitEpoch(res.Body.Epoch, 5*time.Second)
			rec.check(seen, "probe subscriber %s never saw epoch %d", sub.pattern, res.Body.Epoch)
			sub.mu.Lock()
			lag = append(lag, float64(sub.arrivals[res.Body.Epoch].Sub(res.Sent).Nanoseconds())/1e6)
			sub.mu.Unlock()
		}
	}
	ms.setMedian("serve.sub_lag_ms", lag)
	ms.set("delta.runs_per_batch", float64(runs)/perPhase)
	ms.set("delta.gained", float64(gained))
	ms.set("delta.lost", float64(lost))
	ms.set("graph.overlay_compactions", float64(ls.srv.Stats().Mutations.Compactions))

	// The same calls standalone, on the benchmark's own overlay.
	patterns := make([]*pattern.Pattern, len(standingPatterns))
	for i, pat := range standingPatterns {
		p, err := pattern.Parse(pat)
		if err != nil {
			return err
		}
		patterns[i] = p
	}
	dopts := delta.Options{Workers: def.Workers, Seed: def.EngineSeed, Collect: true}
	enumerate := func(old, neu *graph.Graph, res graph.BatchResult) (gpsi int64, err error) {
		for _, p := range patterns {
			d, err := delta.Enumerate(context.Background(), old, neu, res.Added, res.Removed, p, dopts)
			if err != nil {
				return 0, err
			}
			gpsi += d.GpsiGenerated
		}
		return gpsi, nil
	}
	ov := graph.NewOverlay(g)
	old := ov.Snapshot()
	var apply, snapshot, enum []float64
	var gpsi int64
	for _, b := range batches {
		start := time.Now()
		res, err := ov.ApplyBatch(b)
		if err != nil {
			return err
		}
		apply = append(apply, float64(time.Since(start).Nanoseconds())/1e3)
		start = time.Now()
		neu := ov.Snapshot()
		snapshot = append(snapshot, float64(time.Since(start).Nanoseconds())/1e6)
		start = time.Now()
		n, err := enumerate(old, neu, res)
		if err != nil {
			return err
		}
		enum = append(enum, float64(time.Since(start).Nanoseconds())/1e6)
		gpsi += n
		old = neu
	}
	ms.setMedian("graph.overlay_apply_us", apply)
	ms.setMedian("graph.overlay_snapshot_ms", snapshot)
	ms.setMedian("delta.enumerate_ms", enum)
	ms.set("delta.gpsi_generated", float64(gpsi))

	// The floor: a batch that changes the graph where nothing can match, so
	// the anchored runs pay their set-up and find nothing.
	a, b := leafPair(old)
	res, err := ov.ApplyBatch(graph.Batch{Add: [][2]graph.VertexID{{a, b}}})
	if err != nil {
		return err
	}
	neu := ov.Snapshot()
	var floorErr error
	ms.set("delta.noop_floor_ms", medianMS(5, func() {
		if _, err := enumerate(old, neu, res); err != nil {
			floorErr = err
		}
	}))
	if floorErr != nil {
		return floorErr
	}

	// What a server without the delta path would do per batch instead.
	full := medianMS(1, func() {
		for _, p := range patterns {
			opts := core.NewOptions()
			opts.Workers = def.Workers
			opts.Seed = def.EngineSeed
			if _, err := core.RunContext(context.Background(), neu, p, opts); err != nil {
				floorErr = err
			}
		}
	})
	if floorErr != nil {
		return floorErr
	}
	ms.set("delta.full_recount_ms", full)
	ms.set("delta.speedup_vs_full", full/median(enum))
	return nil
}

// leafPair returns two non-adjacent vertices of the lowest degrees present.
func leafPair(g *graph.Graph) (graph.VertexID, graph.VertexID) {
	order := make([]graph.VertexID, g.NumVertices())
	for i := range order {
		order[i] = graph.VertexID(i)
	}
	sort.SliceStable(order, func(i, j int) bool { return g.Degree(order[i]) < g.Degree(order[j]) })
	for _, v := range order[1:] {
		if !g.HasEdge(order[0], v) {
			return order[0], v
		}
	}
	return order[0], order[1]
}
