package core

// Hot-path microbenchmarks, exported so bench_test.go and cmd/psgl-bench's
// `hotpath` report run the exact same measurements. Each benchmark drives an
// internal hot path directly — the expansion step through a detached
// bsp.Context, and the wire codec on gpsi batches — so regressions in
// allocation discipline or encoding cost show up without the noise of a full
// run.

import (
	"fmt"
	"testing"
	"time"

	"psgl/internal/bsp"
	"psgl/internal/gen"
	"psgl/internal/graph"
	"psgl/internal/pattern"
)

// HotpathBenchmark is one named hot-path microbenchmark runnable with
// testing.Benchmark or b.Run.
type HotpathBenchmark struct {
	Name string
	Fn   func(b *testing.B)
}

// HotpathBenchmarks returns the engine's hot-path microbenchmarks: the
// steady-state expansion step, the gpsi wire-codec round trip, and the TCP
// transport's frame codec on a realistic batch.
func HotpathBenchmarks() []HotpathBenchmark {
	return []HotpathBenchmark{
		{"expand", benchmarkExpand},
		{"expand-sparse-merge", benchmarkExpandSparseMerge},
		{"expand-hub-bitset", benchmarkExpandHub(false)},
		{"expand-hub-merge", benchmarkExpandHub(true)},
		{"gpsi-wire-roundtrip", benchmarkGpsiWireRoundTrip},
		{"frame-wire-roundtrip", benchmarkFrameWire},
		{"frame-flat-dense", benchmarkFrameDense(false)},
		{"frame-compressed-dense", benchmarkFrameDense(true)},
		{"e2e-strict-barrier", benchmarkStragglerExchange(false)},
		{"e2e-async-pipelined", benchmarkStragglerExchange(true)},
	}
}

// HotpathFrameBytes reports the encoded size of the hot-path Gpsi batch
// under the wire codec — the bytes/op axis of the frame benchmarks.
func HotpathFrameBytes() (int, error) {
	batch, err := hotpathBatch()
	if err != nil {
		return 0, err
	}
	return len(bsp.AppendWireFrame(nil, 1, batch)), nil
}

// newHotpathHarness builds an engine of the product path (Prepare) over a
// skewed mid-size graph plus a detached context and worker 0's seeds as an
// inbox.
func newHotpathHarness(p *pattern.Pattern, strategy Strategy) (*engine, *bsp.Context[gpsi], []bsp.Envelope[gpsi], error) {
	return newHotpathHarnessOpts(Prepare, p, func(o *Options) { o.Strategy = strategy })
}

// preparePartitioned is PreparePartitioned with the paper's edge index.
func preparePartitioned(g *graph.Graph, opts Options) *Prepared {
	return PreparePartitioned(g, opts, BloomBitsPerEdge)
}

// newHotpathHarnessOpts is newHotpathHarness with a choice of memory model
// (Prepare or preparePartitioned) and an options hook (the bitset fast-path
// benchmarks set the disableBitsetAnd / bitmapMinDegree seams through it).
func newHotpathHarnessOpts(prepare func(*graph.Graph, Options) *Prepared, p *pattern.Pattern, mutate func(*Options)) (*engine, *bsp.Context[gpsi], []bsp.Envelope[gpsi], error) {
	g := gen.ChungLu(3000, 15000, 1.8, 17)
	opts := NewOptions()
	opts.Seed = 5
	if mutate != nil {
		mutate(&opts)
	}
	e, err := newEngine(prepare(g, opts), p.BreakAutomorphisms(), opts.normalized())
	if err != nil {
		return nil, nil, nil, err
	}
	cfg := bsp.Config{
		Workers: e.opts.Workers,
		Owner:   e.ownerOf,
	}
	// Init plants its seeds where it builds them, so the seeds worker 0 would
	// expand are built here, in Init's order.
	ictx := bsp.NewBenchContext[gpsi](cfg, 0, 0)
	var inbox []bsp.Envelope[gpsi]
	for v, w := range e.owner {
		vd := graph.VertexID(v)
		if w == 0 && e.hosts(ictx, e.initial, e.p.Degree(e.initial), vd) {
			inbox = append(inbox, bsp.Envelope[gpsi]{Dest: vd, Msg: e.seedAt(vd)})
		}
	}
	if len(inbox) == 0 {
		return nil, nil, nil, fmt.Errorf("hotpath harness: no seeds for worker 0")
	}
	return e, bsp.NewBenchContext[gpsi](cfg, 0, 1), inbox, nil
}

func benchmarkExpand(b *testing.B) {
	e, ctx, inbox, err := newHotpathHarness(pattern.Triangle(), StrategyWorkloadAware)
	if err != nil {
		b.Fatal(err)
	}
	// Warm up once so scratch frames, counters, and send buffers reach their
	// steady-state capacity before measuring.
	for _, env := range inbox {
		e.Process(ctx, env)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.ResetSends()
		e.Process(ctx, inbox[i%len(inbox)])
	}
}

// benchmarkExpandSparseMerge is benchmarkExpand with the bitset AND fast path
// disabled. On the sparse default graph the default hub threshold keeps the
// fast path nearly silent, so this pair proves the switch costs nothing in
// the sparse regime (the gate is one degree read per candidate set).
func benchmarkExpandSparseMerge(b *testing.B) {
	e, ctx, inbox, err := newHotpathHarnessOpts(Prepare, pattern.Triangle(),
		func(o *Options) { o.disableBitsetAnd = true })
	if err != nil {
		b.Fatal(err)
	}
	for _, env := range inbox {
		e.Process(ctx, env)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.ResetSends()
		e.Process(ctx, inbox[i%len(inbox)])
	}
}

// benchmarkExpandHub measures second-level diamond expansions — the regime
// where a WHITE vertex has two mapped neighbors, so candidate generation can
// intersect hub rows — with the bitset fast path on (merge=false) or off.
// The hub threshold drops to 16 so the skewed test graph's hubs qualify.
func benchmarkExpandHub(disableBitset bool) func(b *testing.B) {
	return func(b *testing.B) {
		e, _, inbox, err := newHotpathHarnessOpts(Prepare, pattern.Diamond(), func(o *Options) {
			o.bitmapMinDegree = 16
			o.disableBitsetAnd = disableBitset
		})
		if err != nil {
			b.Fatal(err)
		}
		cfg := bsp.Config{
			Workers: e.opts.Workers,
			Owner:   e.ownerOf,
		}
		// Expand the seeds to produce the second-level Gpsis
		// (two vertices mapped, one pending WHITE with two mapped neighbors).
		step1 := bsp.NewBenchContext[gpsi](cfg, 0, 1)
		for _, env := range inbox {
			e.Process(step1, env)
		}
		inbox2 := step1.Sends(0)
		if len(inbox2) == 0 {
			b.Fatal("hub harness: no second-level messages for worker 0")
		}
		ctx := bsp.NewBenchContext[gpsi](cfg, 0, 2)
		for _, env := range inbox2 {
			e.Process(ctx, env)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ctx.ResetSends()
			e.Process(ctx, inbox2[i%len(inbox2)])
		}
	}
}

// The async-vs-barrier end-to-end pair: random walks over a skewed Chung–Lu
// graph under a rotating latency straggler. Each round, one worker (rotating
// with the round number) stalls briefly on every message it processes — a
// service-time hiccup in the GC-pause/noisy-neighbor family, not CPU work, so
// the comparison is meaningful even on a single-core machine. Strict BSP
// serializes the stalls at the barriers: every superstep ends with the whole
// fleet waiting out that round's straggler, and the wall clock integrates
// Σ_rounds (straggler stall × its message share). The pipelined async
// exchange lets the other workers race ahead into later rounds while the
// straggler drains, so each worker only pays for the rounds where it is the
// straggler — the Section 4.2 makespan argument, measured.
//
// Both modes walk identical trajectories (the neighbor choice is a hash of
// the walker's position, not of arrival order), so the benchmark doubles as
// a differential check: the walks counter must match exactly.

// stragglerMsg is one walker: its current vertex and its round (hop count).
type stragglerMsg struct {
	V     graph.VertexID
	Round int32
}

type stragglerProgram struct {
	g      *graph.Graph
	k      int
	rounds int32
	seeds  int // walkers started per worker
	stall  time.Duration
}

func (p *stragglerProgram) Init(ctx *bsp.Context[stragglerMsg]) {
	n := uint64(p.g.NumVertices())
	rng := uint64(ctx.Worker())*0x9e3779b97f4a7c15 + 0xbf58476d1ce4e5b9
	for i := 0; i < p.seeds; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		v := graph.VertexID(rng % n)
		ctx.Send(v, stragglerMsg{V: v, Round: 0})
	}
}

func (p *stragglerProgram) Process(ctx *bsp.Context[stragglerMsg], env bsp.Envelope[stragglerMsg]) {
	m := env.Msg
	if m.Round >= p.rounds {
		ctx.AddCounter("walks", 1)
		return
	}
	if ctx.Worker() == int(m.Round)%p.k {
		time.Sleep(p.stall)
	}
	next := m.V
	if nbrs := p.g.Neighbors(m.V); len(nbrs) > 0 {
		next = nbrs[(int(m.V)*31+int(m.Round)*17)%len(nbrs)]
	}
	ctx.Send(next, stragglerMsg{V: next, Round: m.Round + 1})
}

func benchmarkStragglerExchange(async bool) func(b *testing.B) {
	return func(b *testing.B) {
		const (
			workers = 4
			rounds  = 8
			seeds   = 16
			stall   = 500 * time.Microsecond
		)
		g := gen.ChungLu(2000, 10000, 1.6, 17)
		prog := &stragglerProgram{g: g, k: workers, rounds: rounds, seeds: seeds, stall: stall}
		cfg := bsp.Config{
			Workers:       workers,
			Owner:         func(v graph.VertexID) int { return int(v) % workers },
			MaxSupersteps: rounds + 2,
			AsyncExchange: async,
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			stats, err := bsp.Run(cfg, prog)
			if err != nil {
				b.Fatal(err)
			}
			if got := stats.Counters["walks"]; got != workers*seeds {
				b.Fatalf("%d walks completed, want %d (modes must agree exactly)", got, workers*seeds)
			}
		}
	}
}

func benchmarkGpsiWireRoundTrip(b *testing.B) {
	m := gpsi{N: 4, Next: 2, Expanded: 0b0011, Pending: 0b101}
	for i := range m.Map {
		m.Map[i] = unmapped
	}
	m.Map[0], m.Map[1], m.Map[2] = 7, 9, 13
	buf := make([]byte, 0, 64)
	var out gpsi
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = m.AppendWire(buf[:0])
		if _, err := out.DecodeWire(buf); err != nil {
			b.Fatal(err)
		}
	}
	if out.Map != m.Map {
		b.Fatal("wire round trip mangled the mapping")
	}
}

// hotpathBatch builds a realistic exchange batch: worker 0's seeds, as the
// paper's initialization phase would put them on the wire.
func hotpathBatch() ([]bsp.Envelope[gpsi], error) {
	_, _, inbox, err := newHotpathHarness(pattern.PG2(), StrategyWorkloadAware)
	return inbox, err
}

// hotpathLevelBatch builds worker 0's largest per-destination exchange batch
// at superstep `depth` for pattern p: the seeds are level 0, then each level's
// worker-0 inbox is expanded to produce the next. The batch is the largest
// destination's, not worker 0's batch to itself: a Gpsi is never sent back to
// a worker owning an endpoint of its pending edges, so a clique's complete
// Gpsis never are. Deeper batches carry more mapped vertices per Gpsi — the
// longer shared prefixes the compressed codec front-codes away. The batches
// are codec fixtures, built in the partitioned model (PreparePartitioned):
// in one memory domain a diamond completes at level 2 and a clique where it
// is seeded, so those levels send nothing.
func hotpathLevelBatch(p *pattern.Pattern, depth int) ([]bsp.Envelope[gpsi], error) {
	e, _, inbox, err := newHotpathHarnessOpts(preparePartitioned, p, nil)
	if err != nil {
		return nil, err
	}
	cfg := bsp.Config{
		Workers: e.opts.Workers,
		Owner:   e.ownerOf,
	}
	batch := inbox
	for step := 1; step <= depth; step++ {
		ctx := bsp.NewBenchContext[gpsi](cfg, 0, step)
		for _, env := range inbox {
			e.Process(ctx, env)
		}
		inbox, batch = ctx.Sends(0), nil
		for dst := 0; dst < cfg.Workers; dst++ {
			if b := ctx.Sends(dst); len(b) > len(batch) {
				batch = b
			}
		}
		if len(batch) == 0 {
			return nil, fmt.Errorf("hotpath harness: no level-%d messages from worker 0 (%s)", step, p.Name())
		}
	}
	return batch, nil
}

// CompressedBytesMeasure compares the flat and prefix-compressed encodings
// of the same per-destination exchange batch — the bytes-on-wire axis of the
// compressed-frames acceptance (≥1.5x on a dense pattern, no sparse
// regression).
type CompressedBytesMeasure struct {
	Pattern         string  `json:"pattern"`
	Level           int     `json:"level"`
	Envelopes       int     `json:"envelopes"`
	FlatBytes       int     `json:"flat_bytes"`
	CompressedBytes int     `json:"compressed_bytes"`
	Ratio           float64 `json:"ratio"`
}

// HotpathCompressedBytes measures flat-vs-compressed frame sizes on the
// sparse seed batch (PG1) and on dense second/third-level batches (PG3,
// PG5) of the hot-path harness graph.
func HotpathCompressedBytes() ([]CompressedBytesMeasure, error) {
	cases := []struct {
		p     *pattern.Pattern
		level int
	}{
		{pattern.PG1(), 0},
		{pattern.PG3(), 2},
		{pattern.PG5(), 3},
	}
	var out []CompressedBytesMeasure
	for _, c := range cases {
		batch, err := hotpathLevelBatch(c.p, c.level)
		if err != nil {
			return nil, err
		}
		flat := len(bsp.AppendWireFrame(nil, 1, batch))
		comp := len(bsp.AppendCompressedFrame(nil, 1, batch))
		out = append(out, CompressedBytesMeasure{
			Pattern:         c.p.Name(),
			Level:           c.level,
			Envelopes:       len(batch),
			FlatBytes:       flat,
			CompressedBytes: comp,
			Ratio:           float64(flat) / float64(comp),
		})
	}
	return out, nil
}

// benchmarkFrameDense round-trips worker 0's dense second-level PG3 batch
// through the flat (compressed=false) or prefix-compressed (true) frame
// codec — the new hot-path pair the compressed-frames acceptance tracks.
func benchmarkFrameDense(compressed bool) func(b *testing.B) {
	return func(b *testing.B) {
		batch, err := hotpathLevelBatch(pattern.PG3(), 2)
		if err != nil {
			b.Fatal(err)
		}
		var buf []byte
		if compressed {
			buf = bsp.AppendCompressedFrame(nil, 1, batch)
		} else {
			buf = bsp.AppendWireFrame(nil, 1, batch)
		}
		b.SetBytes(int64(len(buf)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if compressed {
				buf = bsp.AppendCompressedFrame(buf[:0], 1, batch)
			} else {
				buf = bsp.AppendWireFrame(buf[:0], 1, batch)
			}
			_, _, out, err := bsp.DecodeFrame[gpsi](buf[4:])
			if err != nil || len(out) != len(batch) {
				b.Fatalf("decode: %d envelopes, err %v", len(out), err)
			}
		}
	}
}

func benchmarkFrameWire(b *testing.B) {
	batch, err := hotpathBatch()
	if err != nil {
		b.Fatal(err)
	}
	buf := bsp.AppendWireFrame(nil, 1, batch)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = bsp.AppendWireFrame(buf[:0], 1, batch)
		// [4:] skips the length prefix, as the exchange's reader does.
		if _, out, err := bsp.DecodeWireFrame[gpsi](buf[4:]); err != nil || len(out) != len(batch) {
			b.Fatalf("decode: %d envelopes, err %v", len(out), err)
		}
	}
}
