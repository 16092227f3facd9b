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
		{"expand", benchmarkExpand(false)},
		{"expand-sparse-merge", benchmarkExpand(true)},
		{"expand-hub-bitset", benchmarkExpandHub(false)},
		{"expand-hub-merge", benchmarkExpandHub(true)},
		{"gpsi-wire-roundtrip", benchmarkGpsiWireRoundTrip},
		{"frame-flat-dense", benchmarkFrameDense(false)},
		{"frame-compressed-dense", benchmarkFrameDense(true)},
	}
}

// hotpathHarness is one run's engine over a skewed mid-size graph, the program
// it runs under, a detached context and worker 0's seeds as an inbox.
type hotpathHarness struct {
	e     *engine
	run   bsp.Program[gpsi]
	cfg   bsp.Config
	ctx   *bsp.Context[gpsi]
	inbox []bsp.Envelope[gpsi]
}

// newHotpathHarnessOpts builds a harness of a memory model (Prepare or a
// PreparePartitioned) with an options hook (the bitset fast-path benchmarks
// set the disableBitsetAnd / bitmapMinDegree seams through it).
func newHotpathHarnessOpts(prepare func(*graph.Graph, Options) *Prepared, p *pattern.Pattern, mutate func(*Options)) (*hotpathHarness, error) {
	g := gen.ChungLu(3000, 15000, 1.8, 17)
	opts := NewOptions()
	opts.Seed = 5
	if mutate != nil {
		mutate(&opts)
	}
	pr := prepare(g, opts)
	e, err := newEngine(pr, p.BreakAutomorphisms(), opts.normalized())
	if err != nil {
		return nil, err
	}
	h := &hotpathHarness{e: e, run: pr.program(e), cfg: bsp.Config{Workers: e.opts.Workers, Owner: e.ownerOf}}
	// Init plants its seeds where it builds them, so the seeds worker 0 would
	// expand are built here, in Init's order.
	ictx := bsp.NewBenchContext[gpsi](h.cfg, 0, 0)
	for v, w := range e.owner {
		vd := graph.VertexID(v)
		if w == 0 && e.hosts(ictx, e.initial, e.p.Degree(e.initial), vd) {
			h.inbox = append(h.inbox, bsp.Envelope[gpsi]{Dest: vd, Msg: e.seedAt(vd)})
		}
	}
	if len(h.inbox) == 0 {
		return nil, fmt.Errorf("hotpath harness: no seeds for worker 0")
	}
	h.ctx = bsp.NewBenchContext[gpsi](h.cfg, 0, 1)
	return h, nil
}

// processAll processes every envelope of inbox on ctx.
func (h *hotpathHarness) processAll(ctx *bsp.Context[gpsi], inbox []bsp.Envelope[gpsi]) {
	for _, env := range inbox {
		h.run.Process(ctx, env)
	}
}

// benchmarkSteady times Process over h's inbox, after one warm-up pass that
// grows scratch frames, counters, and send buffers to their steady-state
// capacity.
func benchmarkSteady(b *testing.B, h *hotpathHarness, err error) {
	if err != nil {
		b.Fatal(err)
	}
	h.processAll(h.ctx, h.inbox)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ctx.ResetSends()
		h.run.Process(h.ctx, h.inbox[i%len(h.inbox)])
	}
}

// benchmarkExpand times triangle expansions, with the bitset AND fast path
// disabled when mergeOnly is set. On the sparse default graph the default hub
// threshold keeps the fast path nearly silent, so the pair proves the switch
// costs nothing in the sparse regime (the gate is one degree read per
// candidate set).
func benchmarkExpand(mergeOnly bool) func(b *testing.B) {
	return func(b *testing.B) {
		h, err := newHotpathHarnessOpts(Prepare, pattern.Triangle(), func(o *Options) { o.disableBitsetAnd = mergeOnly })
		benchmarkSteady(b, h, err)
	}
}

// benchmarkExpandHub measures second-level diamond expansions — the regime
// where a WHITE vertex has two mapped neighbors, so candidate generation can
// intersect hub rows — with the bitset fast path on (merge=false) or off.
// The hub threshold drops to 16 so the skewed test graph's hubs qualify.
func benchmarkExpandHub(disableBitset bool) func(b *testing.B) {
	return func(b *testing.B) {
		h, err := newHotpathHarnessOpts(Prepare, pattern.Diamond(), func(o *Options) {
			o.bitmapMinDegree = 16
			o.disableBitsetAnd = disableBitset
		})
		if err != nil {
			b.Fatal(err)
		}
		// Expand the seeds to produce the second-level Gpsis
		// (two vertices mapped, one pending WHITE with two mapped neighbors).
		h.processAll(h.ctx, h.inbox)
		h.inbox = h.ctx.Sends(0)
		if len(h.inbox) == 0 {
			b.Fatal("hub harness: no second-level messages for worker 0")
		}
		h.ctx = bsp.NewBenchContext[gpsi](h.cfg, 0, 2)
		benchmarkSteady(b, h, nil)
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
// worker-0 inbox is expanded to produce the next. It is the largest
// destination's batch, as a Gpsi is never sent back to a worker owning an
// endpoint of its pending edges. Deeper batches carry longer shared prefixes,
// which the compressed codec front-codes away. The batches are codec
// fixtures, built by the partitioned model's Process under the paper's
// defaults: in one memory domain a diamond completes at level 2, so that
// level sends nothing.
func hotpathLevelBatch(p *pattern.Pattern, depth int) ([]bsp.Envelope[gpsi], error) {
	h, err := newHotpathHarnessOpts(func(g *graph.Graph, opts Options) *Prepared {
		return PreparePartitioned(g, opts, BloomBitsPerEdge, StrategyWorkloadAware, 0.5)
	}, p, nil)
	if err != nil {
		return nil, err
	}
	inbox, batch := h.inbox, h.inbox
	for step := 1; step <= depth; step++ {
		ctx := bsp.NewBenchContext[gpsi](h.cfg, 0, step)
		h.processAll(ctx, inbox)
		inbox, batch = ctx.Sends(0), nil
		for dst := 0; dst < h.cfg.Workers; dst++ {
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
	encode := bsp.AppendWireFrame[gpsi]
	if compressed {
		encode = bsp.AppendCompressedFrame[gpsi]
	}
	return func(b *testing.B) {
		batch, err := hotpathLevelBatch(pattern.PG3(), 2)
		if err != nil {
			b.Fatal(err)
		}
		buf := encode(nil, 1, batch)
		b.SetBytes(int64(len(buf)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = encode(buf[:0], 1, batch)
			_, out, err := bsp.DecodeFrame[gpsi](buf[4:])
			if err != nil || len(out) != len(batch) {
				b.Fatalf("decode: %d envelopes, err %v", len(out), err)
			}
		}
	}
}
