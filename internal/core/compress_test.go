package core

// Differential battery for compressed frames (Options.CompressFrames): the
// prefix-compressed wire codec and the encoded inbox must be invisible to the
// enumeration — same embedding multisets as the centralized oracle, same
// Stats as flat mode, across strict and async exchanges, local and TCP
// transports, and checkpoint and resume.

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"psgl/internal/bsp"
	"psgl/internal/gen"
	"psgl/internal/graph"
	"psgl/internal/pattern"
)

// TestCompressedDifferentialOracleEmbeddings mirrors
// TestDifferentialOracleEmbeddings with CompressFrames on, adding the async
// axis: compressed × {strict, async} × {local, tcp} × the product and every
// strategy of the partitioned model × every catalog pattern, with the full
// embedding multiset required to match the centralized oracle exactly.
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
							res, err := m.run(g, p, Options{
								Workers:        ex.workers,
								Seed:           seed,
								Collect:        true,
								Exchange:       ex.factory,
								AsyncExchange:  mode.async,
								CompressFrames: true,
							})
							if err != nil {
								t.Fatal(err)
							}
							got := make([]string, 0, len(res.Instances))
							for _, inst := range res.Instances {
								got = append(got, embeddingKey(inst))
							}
							sort.Strings(got)
							if len(got) != len(want) {
								t.Fatalf("%d embeddings, oracle has %d", len(got), len(want))
							}
							for i := range want {
								if got[i] != want[i] {
									t.Fatalf("embedding multiset diverges at #%d: engine %q, oracle %q", i, got[i], want[i])
								}
							}
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

// TestCompressedMatchesFlatStats: compression is a codec and nothing else.
// For every catalog pattern, on the differential suite's seeds, strict ×
// {local, tcp}, plus a row whose lowered hub threshold makes the bitset AND
// fire, a compressed run reports every Stats field a flat run reports but the
// clocks and the Compressed* counters, so a second expansion path for decoded
// frames shows here. Every row runs in both memory models, the partitioned one
// under every strategy. A decoded frame is processed in the encoder's sorted
// order. In one memory domain the route of a Gpsi is a function of the Gpsi,
// so that changes nothing. In the partitioned model the strategies consume
// their per-worker random streams and load views in processing order, so
// which worker expands a Gpsi may differ — WorkerMessages and LoadUnits are
// compared there by their totals, and LoadMakespan, a function of the split,
// not at all. (There, on larger graphs, another route can also move where a
// closing edge is checked, and with it the Gpsi totals; on these it does not.)
// The test also proves compression engaged: every compressed run that sends
// decoded frames and saved bytes. Seeds are expanded where they are built, so
// no seed crosses a frame: clique4 runs on a graph with twice the edges, where
// its children still fill frames in the partitioned model (on the 300-edge
// graphs it sends none). In one memory domain a clique completes where it is
// seeded, so its runs must send nothing at all.
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
						base := Options{Workers: 4, Seed: row.seed}
						if row.exchange == "tcp" {
							base.Workers, base.Exchange = 3, bsp.NewTCPExchangeFactory()
						}
						if row.hubs {
							base.bitmapMinDegree = 8
						}
						for _, m := range models {
							opts := base
							flat, err := m.run(g, p, opts)
							if err != nil {
								t.Fatal(err)
							}
							opts.CompressFrames = true
							comp, err := m.run(g, p, opts)
							if err != nil {
								t.Fatal(err)
							}
							if f, c := flatView(flat.Stats, partitioned), flatView(comp.Stats, partitioned); f != c {
								t.Errorf("%s: compressed Stats differ from flat:\n flat %s\n comp %s", m.name, f, c)
							}
							if fs := flat.Stats; fs.CompressedFrames != 0 || fs.CompressedWireBytes != 0 || fs.CompressedRawBytes != 0 {
								t.Fatalf("%s: flat run reports compressed counters: %s", m.name, withoutClocks(fs))
							}
							cs := comp.Stats
							switch {
							case sends && (cs.CompressedFrames == 0 || cs.CompressedRawBytes <= cs.CompressedWireBytes):
								t.Errorf("%s: compression did not engage: %d frames, wire %d B, raw %d B",
									m.name, cs.CompressedFrames, cs.CompressedWireBytes, cs.CompressedRawBytes)
							case !sends && (cs.CompressedRawBytes != 0 || slices.ContainsFunc(cs.PerStepMessages, func(n int64) bool { return n != 0 })):
								t.Errorf("%s: a clique sent %v messages, %d B, in one memory domain", m.name, cs.PerStepMessages, cs.CompressedRawBytes)
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

// flatView is withoutClocks of what a compressed run shares with a flat one:
// the Compressed* counters zeroed and, in the partitioned model, the
// per-worker split summed and LoadMakespan dropped.
func flatView(st Stats, partitioned bool) string {
	st.CompressedFrames, st.CompressedWireBytes, st.CompressedRawBytes = 0, 0, 0
	if !partitioned {
		return withoutClocks(st)
	}
	msgs, load := int64(0), 0.0
	for w := range st.WorkerMessages {
		msgs += st.WorkerMessages[w]
		load += st.LoadUnits[w]
	}
	st.WorkerMessages, st.LoadUnits, st.LoadMakespan = []int64{msgs}, []float64{load}, 0
	return withoutClocks(st)
}

// compressedCounterView is the slice of Stats that must be bit-identical
// across clean, recovered, and resumed compressed runs: the logical
// compression counters ride the barrier snapshots, so replayed supersteps
// must not double-count.
type compressedCounterView struct {
	Count                                 int64
	Frames, WireBytes, RawBytes           int64
	GpsiGenerated, GpsiProcessed, Results int64
}

func viewOf(r *Result) compressedCounterView {
	return compressedCounterView{
		Count:         r.Count,
		Frames:        r.Stats.CompressedFrames,
		WireBytes:     r.Stats.CompressedWireBytes,
		RawBytes:      r.Stats.CompressedRawBytes,
		GpsiGenerated: r.Stats.GpsiGenerated,
		GpsiProcessed: r.Stats.GpsiProcessed,
		Results:       r.Stats.Results,
	}
}

// TestCompressedCountersMirrored stops a compressed run after each of its
// saves and resumes it: every resumed run must reproduce the clean run's
// compression counters exactly — not just the count. The runs list houses,
// which take three supersteps, so the stops land at barriers after the first;
// a diamond completes in two.
func TestCompressedCountersMirrored(t *testing.T) {
	g := gen.ChungLu(70, 300, 2.3, 1)
	p := pattern.PG5()
	base := Options{Workers: 3, Seed: 1, CompressFrames: true}
	clean, err := Run(g, p, base)
	if err != nil {
		t.Fatal(err)
	}
	want := viewOf(clean)
	if want.Frames == 0 {
		t.Fatalf("scenario too sparse to exercise compression: %+v", want)
	}

	t.Run("resumed", func(t *testing.T) {
		if clean.Stats.Supersteps < 3 {
			t.Fatalf("run too short to test resume: %d supersteps", clean.Stats.Supersteps)
		}
		for n := 1; n < clean.Stats.Supersteps; n++ {
			sr, ok := stopAndResume(t, Prepare(g, base), p, base, n, false)
			if !ok {
				t.Fatalf("the run ended before its save %d", n)
			}
			if got := viewOf(sr.resumed); got != want {
				t.Fatalf("resumed after save %d: counters diverged:\n got %+v\nwant %+v", n, got, want)
			}
		}
	})
}

// TestCompressedWithEngineVariants sweeps compression against the engine's
// other orthogonal modes — the partitioned model without the edge index,
// disabled bitset AND, a generous intermediate budget — to pin that
// compression composes with each (count parity with the same variant in flat
// mode).
func TestCompressedWithEngineVariants(t *testing.T) {
	g := gen.ChungLu(70, 300, 2.3, 2)
	p := pattern.PG3()
	variants := []struct {
		name string
		run  func(*graph.Graph, *pattern.Pattern, Options) (*Result, error)
		mut  func(*Options)
	}{
		{"no_edge_index", runWithoutIndex, func(*Options) {}},
		{"no_bitset_and", Run, func(o *Options) { o.disableBitsetAnd = true }},
		{"max_intermediate_ok", Run, func(o *Options) { o.MaxIntermediate = 1 << 30 }},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			base := Options{Workers: 4, Seed: 2}
			v.mut(&base)
			flat, err := v.run(g, p, base)
			if err != nil {
				t.Fatal(err)
			}
			opts := base
			opts.CompressFrames = true
			comp, err := v.run(g, p, opts)
			if err != nil {
				t.Fatal(err)
			}
			if comp.Count != flat.Count {
				t.Fatalf("compressed counted %d, flat %d", comp.Count, flat.Count)
			}
		})
	}
}
