package core

// Hot-path microbenchmarks, exported so bench_test.go and the benchmark
// module's per-layer rows run the exact same measurements. Each benchmark
// drives an internal hot path directly — the expansion step through a
// detached bsp.Context, and the wire codec on gpsi batches — so regressions
// in allocation discipline or encoding cost show up without the noise of a
// full run.

import (
	"fmt"
	"testing"

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
// transport's flat and compressed frame codecs on a dense batch.
func HotpathBenchmarks() []HotpathBenchmark {
	return []HotpathBenchmark{
		{"expand", benchmarkExpand},
		{"expand-sparse-merge", benchmarkExpandSparseMerge},
		{"expand-hub-bitset", benchmarkExpandHub(false)},
		{"expand-hub-merge", benchmarkExpandHub(true)},
		{"gpsi-wire-roundtrip", benchmarkGpsiWireRoundTrip},
		{"frame-flat-dense", benchmarkFrameDense(false)},
		{"frame-compressed-dense", benchmarkFrameDense(true)},
	}
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

// benchmarkFrameDense round-trips worker 0's dense second-level PG3 batch
// through the flat (compressed=false) or prefix-compressed (true) frame
// codec: the pair that weighs compression's encode and decode cost.
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
