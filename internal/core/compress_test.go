package core

// Differential battery for the prefix-compressed frame codec
// (bsp.AppendCompressedFrame, bsp.DecodeFrame). No run compresses its frames;
// the codec stays for the benchmark rows that weigh it against the flat one.
// Here it carries real message streams: codecRun drives a strict run outside
// the BSP loop and passes every batch a worker sends through the codec before
// its destination processes it. The decoded stream must be invisible to the
// enumeration — the centralized oracle's embedding multiset, and what a flat
// run reports — on every model, worker count and engine variant. Cells of a
// configuration the partitioned model no longer runs in (the pipelined policy,
// TCP) check that it is refused.

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"testing"

	"psgl/internal/bsp"
	"psgl/internal/gen"
	"psgl/internal/graph"
	"psgl/internal/pattern"
)

// codecResult is what a codecRun reports: Stats as a flat run would build
// them from its run statistics, without counters and clocks (Count is the
// number of instances the engine emitted), the sorted embedding keys when
// opts.Collect is set, and the bytes the compressed frames took against the
// flat frames of the same batches.
type codecResult struct {
	Stats
	Count         int64
	keys          []string
	wire, flatLen int
}

// codecRun runs p on pr strictly, superstep by superstep, on detached
// contexts (bsp.NewBenchContext): worker w of superstep s processes every
// envelope addressed to it in s-1, and each per-destination batch it sends is
// encoded as one compressed frame and decoded again, in the decoded order,
// before its destination sees it. Self-sends take the same trip.
func codecRun(t *testing.T, pr *Prepared, p *pattern.Pattern, opts Options) *codecResult {
	t.Helper()
	opts = opts.normalized()
	if err := pr.check(opts); err != nil {
		t.Fatal(err)
	}
	e, err := newEngine(pr, p.BreakAutomorphisms(), opts)
	if err != nil {
		t.Fatal(err)
	}
	run := pr.program(e)
	k := opts.Workers
	cfg := bsp.Config{Workers: k, Owner: e.ownerOf}
	r := &codecResult{}
	rs := &bsp.RunStats{WorkerMessages: make([]int64, k)}
	inboxes := make([][]bsp.Envelope[gpsi], k)
	for step := 0; ; step++ {
		next := make([][]bsp.Envelope[gpsi], k)
		var produced int64
		for w := range k {
			ctx := bsp.NewBenchContext[gpsi](cfg, w, step)
			if step == 0 {
				run.Init(ctx)
			}
			for _, env := range inboxes[w] {
				run.Process(ctx, env)
			}
			rs.WorkerMessages[w] += int64(len(inboxes[w]))
			produced += ctx.SentCount()
			for dst := range k {
				batch := ctx.Sends(dst)
				if len(batch) == 0 {
					continue
				}
				frame := bsp.AppendCompressedFrame(nil, step+1, batch)
				r.wire += len(frame)
				r.flatLen += len(bsp.AppendWireFrame(nil, step+1, batch))
				fs, out, err := bsp.DecodeFrame[gpsi](frame[4:])
				if err != nil || fs != step+1 || len(out) != len(batch) {
					t.Fatalf("step %d, %d->%d: decoded %d of %d envelopes at step %d: %v", step, w, dst, len(out), len(batch), fs, err)
				}
				next[dst] = append(next[dst], out...)
			}
		}
		rs.PerStepMessages = append(rs.PerStepMessages, produced)
		rs.Supersteps++
		inboxes = next
		if !slices.ContainsFunc(next, func(in []bsp.Envelope[gpsi]) bool { return len(in) > 0 }) {
			break
		}
	}
	if e.halted.Load() != 0 {
		t.Fatalf("the run halted (%d)", e.halted.Load())
	}
	res := e.buildResult(rs, 0)
	r.Stats = res.Stats
	r.Count = int64(len(res.Instances))
	for _, inst := range res.Instances {
		r.keys = append(r.keys, embeddingKey(inst))
	}
	sort.Strings(r.keys)
	return r
}

// sameKeys fails t unless got and want, sorted embedding keys, are equal.
func sameKeys(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d embeddings, oracle has %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: embedding multiset diverges at #%d: engine %q, oracle %q", what, i, got[i], want[i])
		}
	}
}

// requireRefused fails t unless m refuses opts with ErrPreparedMismatch: the
// partitioned model runs strict and in process only.
func requireRefused(t *testing.T, m runModel, g *graph.Graph, p *pattern.Pattern, opts Options) {
	t.Helper()
	if _, err := m.run(g, p, opts); !errors.Is(err, ErrPreparedMismatch) {
		t.Fatalf("%s with Exchange %v, AsyncExchange %v: err = %v, want ErrPreparedMismatch",
			m.name, opts.Exchange != nil, opts.AsyncExchange, err)
	}
}

// TestCompressedDifferentialOracleEmbeddings: the product and every strategy
// of the partitioned model × every catalog pattern × the worker counts of
// {local, tcp} (4 and 3), with every batch carried by the compressed codec,
// must list the centralized oracle's embedding multiset exactly. Each cell
// also runs its configuration, {local, tcp} × {strict, async}, with flat
// frames: the product must list the same multiset, and the partitioned model
// must refuse every configuration but strict in process.
func TestCompressedDifferentialOracleEmbeddings(t *testing.T) {
	patterns := []*pattern.Pattern{
		pattern.PG1(), pattern.PG2(), pattern.PG3(), pattern.PG4(), pattern.PG5(),
	}
	exchanges := []struct {
		name    string
		factory bsp.ExchangeFactory
		workers int
	}{
		{"local", nil, 4},
		{"tcp", bsp.NewTCPExchangeFactory(), 3},
	}
	modes := []struct {
		name  string
		async bool
	}{
		{"strict", false},
		{"async", true},
	}

	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		g := gen.ChungLu(70, 300, 2.3, seed)
		for _, p := range patterns {
			want := oracleEmbeddings(p, g)
			for _, m := range runModels {
				for _, ex := range exchanges {
					for _, mode := range modes {
						// The non-default corners are transport/mode plumbing, not
						// strategy logic; in -short mode WA and the product cover them.
						if testing.Short() && (ex.name == "tcp" || mode.async) && m.alt {
							continue
						}
						name := fmt.Sprintf("seed%d/%s/%s/%s/%s", seed, p.Name(), m.name, ex.name, mode.name)
						t.Run(name, func(t *testing.T) {
							opts := Options{Workers: ex.workers, Seed: seed, Collect: true}
							cr := codecRun(t, m.prepare(g, opts), p, opts)
							sameKeys(t, "compressed", cr.keys, want)
							opts.Exchange, opts.AsyncExchange = ex.factory, mode.async
							if m.partitioned() && (ex.factory != nil || mode.async) {
								requireRefused(t, m, g, p, opts)
								return
							}
							res, err := m.run(g, p, opts)
							if err != nil {
								t.Fatal(err)
							}
							got := make([]string, 0, len(res.Instances))
							for _, inst := range res.Instances {
								got = append(got, embeddingKey(inst))
							}
							sort.Strings(got)
							sameKeys(t, "flat", got, want)
							if res.Count != int64(len(want)) {
								t.Fatalf("Count = %d, %d embeddings collected", res.Count, len(want))
							}
						})
					}
				}
			}
		}
	}
}

// TestCompressedMatchesFlatStats: the codec is a codec and nothing else. For
// every catalog pattern, on the differential suite's seeds, at the worker
// counts of {local, tcp} (4 and 3), plus a row whose lowered hub threshold
// makes the bitset AND fire, a codecRun reports what a strict flat run
// reports of the run's shape: Count, Supersteps, PerStepMessages,
// WorkerMessages, LoadUnits and LoadMakespan. Every row runs in both memory
// models, the partitioned one under every strategy. A decoded frame is
// processed in the encoder's sorted order. In one memory domain the route of
// a Gpsi is a function of the Gpsi, so that changes nothing. In the
// partitioned model the strategies consume their per-worker random streams
// and load views in processing order, so which worker expands a Gpsi may
// differ — WorkerMessages and LoadUnits are compared there by their totals,
// and LoadMakespan, a function of the split, not at all. The flat run of a
// tcp row goes over TCP in the product; the partitioned model refuses TCP,
// so its tcp rows run it in process and check the refusal. The test also
// proves the codec engaged: every run that sends frames saved bytes. Seeds
// are expanded where they are built, so no seed crosses a frame: clique4
// runs on a graph with twice the edges, where its children still fill frames
// in the partitioned model (on the 300-edge graphs it sends none). In one
// memory domain a clique completes where it is seeded, so its runs must send
// nothing at all.
func TestCompressedMatchesFlatStats(t *testing.T) {
	rows := []struct {
		seed     int64
		exchange string
		hubs     bool
	}{
		{1, "local", false}, {1, "tcp", false},
		{2, "local", false}, {2, "tcp", false},
		{3, "local", false}, {3, "tcp", false},
		{1, "local", true},
	}
	patterns := []*pattern.Pattern{
		pattern.PG1(), pattern.PG2(), pattern.PG3(), pattern.PG4(), pattern.PG5(),
	}
	bitsetAnd := int64(0)
	for _, p := range patterns {
		clique := len(p.Edges()) == p.N()*(p.N()-1)/2
		t.Run(p.Name(), func(t *testing.T) {
			for _, row := range rows {
				for _, partitioned := range []bool{true, false} {
					name := fmt.Sprintf("seed%d/%s", row.seed, row.exchange)
					if row.hubs {
						name += "/hubs"
					}
					models, sends := []runModel{productModel}, !clique
					if partitioned {
						name += "/partitioned"
						models, sends = partitionedModels, true
					}
					t.Run(name, func(t *testing.T) {
						edges := int64(300)
						if p.Name() == "clique4" {
							edges = 600
						}
						g := gen.ChungLu(70, edges, 2.3, row.seed)
						base := Options{Workers: 4, Seed: row.seed, Collect: true}
						if row.exchange == "tcp" {
							base.Workers = 3
						}
						if row.hubs {
							base.bitmapMinDegree = 8
						}
						for _, m := range models {
							opts := base
							if row.exchange == "tcp" {
								opts.Exchange = bsp.NewTCPExchangeFactory()
								if partitioned {
									requireRefused(t, m, g, p, opts)
									opts.Exchange = nil
								}
							}
							flat, err := m.run(g, p, opts)
							if err != nil {
								t.Fatal(err)
							}
							cr := codecRun(t, m.prepare(g, base), p, base)
							if f, c := codecView(flat.Count, flat.Stats, partitioned), codecView(cr.Count, cr.Stats, partitioned); f != c {
								t.Errorf("%s: compressed run differs from flat:\n flat %s\n comp %s", m.name, f, c)
							}
							switch {
							case sends && (cr.wire == 0 || cr.flatLen <= cr.wire):
								t.Errorf("%s: compression did not engage: wire %d B, flat %d B", m.name, cr.wire, cr.flatLen)
							case !sends && (cr.flatLen != 0 || slices.ContainsFunc(flat.Stats.PerStepMessages, func(n int64) bool { return n != 0 })):
								t.Errorf("%s: a clique sent %v messages, %d B, in one memory domain", m.name, flat.Stats.PerStepMessages, cr.flatLen)
							}
							if row.hubs {
								bitsetAnd += flat.Stats.BitsetAndCandidates
							}
						}
					})
				}
			}
		})
	}
	if bitsetAnd == 0 {
		t.Fatal("the lowered hub threshold never took the bitset AND path")
	}
}

// codecView is what a codecRun shares with a flat run: the count and the
// run's shape; in the partitioned model the per-worker split summed and
// LoadMakespan dropped.
func codecView(count int64, st Stats, partitioned bool) string {
	msgs, loads, makespan := st.WorkerMessages, st.LoadUnits, st.LoadMakespan
	if partitioned {
		m, l := int64(0), 0.0
		for w := range msgs {
			m += msgs[w]
			l += loads[w]
		}
		msgs, loads, makespan = []int64{m}, []float64{l}, 0
	}
	return fmt.Sprintf("Count:%d Supersteps:%d PerStepMessages:%v WorkerMessages:%v LoadUnits:%v LoadMakespan:%v",
		count, st.Supersteps, st.PerStepMessages, msgs, loads, makespan)
}

// TestCompressedWithEngineVariants sweeps the codec against the engine's
// other orthogonal modes — the partitioned model without the edge index,
// disabled bitset AND, a generous intermediate budget — to pin that a
// codecRun of each counts what a flat run of the same variant counts.
func TestCompressedWithEngineVariants(t *testing.T) {
	g := gen.ChungLu(70, 300, 2.3, 2)
	p := pattern.PG3()
	withoutIndex := func(g *graph.Graph, opts Options) *Prepared {
		return PreparePartitioned(g, opts, 0, StrategyWorkloadAware, 0.5)
	}
	variants := []struct {
		name    string
		prepare func(*graph.Graph, Options) *Prepared
		mut     func(*Options)
	}{
		{"no_edge_index", withoutIndex, func(*Options) {}},
		{"no_bitset_and", Prepare, func(o *Options) { o.disableBitsetAnd = true }},
		{"max_intermediate_ok", Prepare, func(o *Options) { o.MaxIntermediate = 1 << 30 }},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			opts := Options{Workers: 4, Seed: 2, Collect: true}
			v.mut(&opts)
			pr := v.prepare(g, opts)
			flat, err := pr.RunContext(context.Background(), p, opts)
			if err != nil {
				t.Fatal(err)
			}
			comp := codecRun(t, pr, p, opts)
			if comp.Count != flat.Count || comp.Count == 0 {
				t.Fatalf("compressed counted %d, flat %d", comp.Count, flat.Count)
			}
		})
	}
}

// TestHotpathFrameFixturePinned pins the codec fixture of the
// frame-flat-dense and frame-compressed-dense hot-path rows: worker 0's
// largest second-level diamond batch, which the partitioned model's Process
// builds. The FNV-64a of its flat frame and the compressed frame's length
// must not move, or those rows measure another batch.
func TestHotpathFrameFixturePinned(t *testing.T) {
	batch, err := hotpathLevelBatch(pattern.PG3(), 2)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(bsp.AppendWireFrame(nil, 1, batch))
	const wantHash, wantCompressed = 0x23c2c2bf16ee7604, 22302
	if got := h.Sum64(); got != wantHash {
		t.Errorf("flat frame of %d envelopes hashes to %#x, pinned %#x", len(batch), got, uint64(wantHash))
	}
	if got := len(bsp.AppendCompressedFrame(nil, 1, batch)); got != wantCompressed {
		t.Errorf("compressed frame of %d envelopes is %d B, pinned %d", len(batch), got, wantCompressed)
	}
}
