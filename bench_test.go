package psgl_test

// One benchmark per table and figure of the paper's evaluation (Section 7),
// plus ablation benches for the design choices DESIGN.md calls out. The
// macro benchmarks regenerate the full experiment and log its report; run
// them with a bounded count, e.g.
//
//	go test -bench=. -benchtime=1x -benchmem
//
// The same reports are available interactively via cmd/psgl-bench.

import (
	"context"
	"testing"

	"psgl"
	"psgl/internal/core"
	"psgl/internal/datasets"
	"psgl/internal/experiments"
	"psgl/internal/pattern"
)

func benchExperiment(b *testing.B, fn func() string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		out := fn()
		if i == 0 {
			b.Log("\n" + out)
		}
	}
}

// BenchmarkTable1Datasets regenerates Table 1 (dataset metadata).
func BenchmarkTable1Datasets(b *testing.B) { benchExperiment(b, experiments.Datasets) }

// BenchmarkProperty1NbNs regenerates the Section 3 nb/ns polarization check.
func BenchmarkProperty1NbNs(b *testing.B) { benchExperiment(b, experiments.Property1) }

// BenchmarkFigure3Strategies regenerates Figure 3 (distribution strategies).
func BenchmarkFigure3Strategies(b *testing.B) { benchExperiment(b, experiments.Figure3) }

// BenchmarkFigure5PerWorkerBalance regenerates Figure 5 (per-worker load).
func BenchmarkFigure5PerWorkerBalance(b *testing.B) { benchExperiment(b, experiments.Figure5) }

// BenchmarkFigure6InitialVertex regenerates Figure 6 (initial-vertex ratios).
func BenchmarkFigure6InitialVertex(b *testing.B) { benchExperiment(b, experiments.Figure6) }

// BenchmarkTable2EdgeIndex regenerates Table 2 (edge-index pruning ratios).
func BenchmarkTable2EdgeIndex(b *testing.B) { benchExperiment(b, experiments.Table2) }

// BenchmarkFigure7VsMapReduce regenerates Figure 7 (PSgL vs Afrati vs SGIA).
func BenchmarkFigure7VsMapReduce(b *testing.B) { benchExperiment(b, experiments.Figure7) }

// BenchmarkTable3TriangleListing regenerates Table 3 (triangles on the large
// graphs, four systems).
func BenchmarkTable3TriangleListing(b *testing.B) { benchExperiment(b, experiments.Table3) }

// BenchmarkTable4GeneralPatterns regenerates Table 4 (one-hop engine with
// fixed orders, OOM rows).
func BenchmarkTable4GeneralPatterns(b *testing.B) { benchExperiment(b, experiments.Table4) }

// BenchmarkFigure8Scalability regenerates Figure 8 (worker-count sweep).
func BenchmarkFigure8Scalability(b *testing.B) { benchExperiment(b, experiments.Figure8) }

// BenchmarkTheorem3Makespan regenerates the isolated distribution-problem
// study (Theorem 3, strategies vs OPT / lower bound).
func BenchmarkTheorem3Makespan(b *testing.B) { benchExperiment(b, experiments.Makespan) }

// --- Ablation benches (design choices from DESIGN.md §5) ---

// BenchmarkAblationAlpha sweeps the workload-aware penalty exponent in the
// paper's partitioned model, the only one with a distribution strategy.
func BenchmarkAblationAlpha(b *testing.B) {
	g := datasets.MustLoad("wikitalk")
	for _, alpha := range []float64{0.001, 0.25, 0.5, 0.75, 1.0} {
		b.Run(alphaName(alpha), func(b *testing.B) {
			opts := core.Options{Workers: 8}
			pr := core.PreparePartitioned(g, opts, core.BloomBitsPerEdge, core.StrategyWorkloadAware, alpha)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := pr.RunContext(context.Background(), pattern.PG2(), opts)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Stats.LoadMakespan, "load-makespan")
			}
		})
	}
}

func alphaName(a float64) string {
	switch a {
	case 0.001:
		return "alpha~0"
	case 0.25:
		return "alpha0.25"
	case 0.5:
		return "alpha0.5"
	case 0.75:
		return "alpha0.75"
	default:
		return "alpha1.0"
	}
}

// BenchmarkAblationBloomBits varies the edge index size (bits per edge) in the
// paper's partitioned model: fewer bits = more false positives = more pending
// verifications.
func BenchmarkAblationBloomBits(b *testing.B) {
	g := datasets.MustLoad("livejournal")
	for _, bits := range []int{2, 4, 8, 16} {
		b.Run(bitsName(bits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := core.Options{Workers: 8}
				res, err := core.PreparePartitioned(g, opts, bits, core.StrategyWorkloadAware, 0.5).RunContext(context.Background(), pattern.PG3(), opts)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Stats.GpsiGenerated), "gpsi")
				b.ReportMetric(float64(res.Stats.EdgeIndexBytes), "index-bytes")
			}
		})
	}
}

func bitsName(bits int) string {
	switch bits {
	case 2:
		return "2bits"
	case 4:
		return "4bits"
	case 8:
		return "8bits"
	default:
		return "16bits"
	}
}

// BenchmarkAblationEdgeIndex toggles the edge index entirely in the paper's
// partitioned model (Table 2's axis, as a microbench on a mid-size input).
func BenchmarkAblationEdgeIndex(b *testing.B) {
	g := psgl.GenerateChungLu(5000, 20000, 1.8, 3)
	for _, bits := range []int{core.BloomBitsPerEdge, 0} {
		name := "with-index"
		if bits == 0 {
			name = "without-index"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := core.Options{Workers: 4}
				res, err := core.PreparePartitioned(g, opts, bits, core.StrategyWorkloadAware, 0.5).RunContext(context.Background(), pattern.PG3(), opts)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Stats.GpsiGenerated), "gpsi")
			}
		})
	}
}

// BenchmarkAblationAutomorphism measures the cost of skipping symmetry
// breaking: every instance is found |Aut| times. The unbroken run passes a
// pattern without orders as planned, so the engine keeps it that way.
func BenchmarkAblationAutomorphism(b *testing.B) {
	g := psgl.GenerateChungLu(4000, 16000, 1.9, 4)
	for _, disable := range []bool{false, true} {
		name, p, opts := "broken", pattern.PG1(), core.Options{Workers: 4}
		if disable {
			name, p, opts.PlannedPattern = "unbroken", p.StripOrders(), true
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.Run(g, p, opts)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Count), "found")
			}
		})
	}
}

// BenchmarkAblationInitialVertex compares the automatic initial-vertex pick
// against the worst fixed choice on a skewed graph (Figure 6's axis as a
// microbench).
func BenchmarkAblationInitialVertex(b *testing.B) {
	g := psgl.GenerateChungLu(4000, 16000, 1.6, 5)
	p := pattern.PG2()
	for _, cfg := range []struct {
		name string
		v    int
	}{{"auto", -1}, {"worst-v4", 3}} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.Run(g, p, core.Options{Workers: 4, InitialVertex: cfg.v})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Stats.LoadMakespan, "load-makespan")
			}
		})
	}
}

// BenchmarkHotpath runs the engine's hot-path microbenchmarks: steady-state
// expansion and the exchange frame codec. The same measurements back the
// benchmark module's core.hotpath.* rows.
func BenchmarkHotpath(b *testing.B) {
	for _, hb := range core.HotpathBenchmarks() {
		b.Run(hb.Name, hb.Fn)
	}
}

// BenchmarkCensus regenerates the motif-census baseline (ESU engine at
// k=3/4, single-worker cold cache then all-core warm cache) behind
// `psgl-bench census` and the committed BENCH_census.json.
func BenchmarkCensus(b *testing.B) { benchExperiment(b, experiments.Census) }

// BenchmarkEngineTriangle is the plain PSgL micro benchmark (allocation
// profile of the hot path).
func BenchmarkEngineTriangle(b *testing.B) {
	g := psgl.GenerateChungLu(10000, 50000, 1.8, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := psgl.Count(g, psgl.Triangle(), psgl.NewOptions()); err != nil {
			b.Fatal(err)
		}
	}
}
