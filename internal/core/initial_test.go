package core

import (
	"testing"

	"psgl/internal/datasets"
	"psgl/internal/gen"
	"psgl/internal/graph"
	"psgl/internal/pattern"
	"psgl/internal/stats"
)

func degDistOf(n int, m int64, gamma float64, seed int64) *stats.Distribution {
	g := gen.ChungLu(n, m, gamma, seed)
	return stats.FromHistogram(g.DegreeHistogram())
}

func TestSelectInitialVertexCyclesCliquesUseTheorem5(t *testing.T) {
	dist := degDistOf(2000, 10000, 1.8, 1)
	for _, p := range []*pattern.Pattern{pattern.PG1(), pattern.PG2(), pattern.PG4(), pattern.Cycle(5), pattern.Clique(5)} {
		got := SelectInitialVertex(p, dist)
		if want := p.LowestRankVertex(); got != want {
			t.Errorf("%s: initial vertex %d, want lowest-rank %d", p.Name(), got, want)
		}
	}
}

func TestEstimateCostPositiveAndFinite(t *testing.T) {
	dist := degDistOf(2000, 10000, 1.8, 2)
	for _, p := range []*pattern.Pattern{pattern.PG3(), pattern.PG5(), pattern.Path(4), pattern.Star(4)} {
		for v := 0; v < p.N(); v++ {
			c := EstimateInitialVertexCost(p, dist, v)
			if c <= 0 || c > 1e19 {
				t.Errorf("%s v=%d: cost %g out of range", p.Name(), v, c)
			}
		}
	}
}

func TestEstimateCostPrefersLowFanoutStart(t *testing.T) {
	// On the star pattern, starting at a leaf means the first expansion maps
	// only the center (fanout ~ degree), while starting at the center maps
	// all leaves at once (fanout ~ C(d, k)). The model must prefer a leaf.
	dist := degDistOf(5000, 50000, 2.0, 3)
	p := pattern.Star(4)
	center := EstimateInitialVertexCost(p, dist, 0)
	leaf := EstimateInitialVertexCost(p, dist, 1)
	if leaf >= center {
		t.Fatalf("leaf start (%g) should be cheaper than center start (%g)", leaf, center)
	}
	if got := SelectInitialVertex(p, dist); got == 0 {
		t.Fatalf("SelectInitialVertex picked the star center")
	}
}

func TestEstimateCostMonotoneInSkew(t *testing.T) {
	// A more skewed graph has larger expected C(d,2) fanout, so the same
	// pattern/vertex must cost at least as much as on a balanced graph of
	// the same size.
	skewed := degDistOf(3000, 15000, 1.6, 4)
	p := pattern.PG5()
	gER := gen.ErdosRenyi(3000, 15000, 4)
	er := stats.FromHistogram(gER.DegreeHistogram())
	v := 0
	if EstimateInitialVertexCost(p, skewed, v) <= EstimateInitialVertexCost(p, er, v) {
		t.Fatal("skewed graph should have higher estimated cost")
	}
}

// TestTheorem5RuleEffectiveOnPowerLaw verifies the experimental claim behind
// Figure 6: on a skewed graph, starting cycles/cliques from the lowest-rank
// pattern vertex generates far fewer partial instances than starting from
// the highest-rank vertex.
func TestTheorem5RuleEffectiveOnPowerLaw(t *testing.T) {
	g := gen.ChungLu(1500, 6000, 1.6, 5)
	for _, p := range []*pattern.Pattern{pattern.PG1(), pattern.PG2()} {
		best := p.LowestRankVertex()
		// Worst start: the vertex below the most '<' constraints, whose
		// candidates come from the polarized nb side of the ordering.
		worst, preds := -1, -1
		for v := 0; v < p.N(); v++ {
			c := 0
			for u := 0; u < p.N(); u++ {
				if u != v && p.MustPrecede(u, v) {
					c++
				}
			}
			if c > preds {
				worst, preds = v, c
			}
		}
		lo, hi := expansionWork(t, g, p, best), expansionWork(t, g, p, worst)
		if lo*2 > hi {
			t.Errorf("%s: lowest-rank start work %.0f vs highest-rank %.0f — Theorem 5 rule ineffective",
				p.Name(), lo, hi)
		}
	}
}

// TestInitialVertexMattersLessOnRandomGraph mirrors Figure 6(d): on an ER
// graph the gap between initial vertices is small.
func TestInitialVertexMattersLessOnRandomGraph(t *testing.T) {
	gER := gen.ErdosRenyi(1500, 6000, 6)
	gPL := gen.ChungLu(1500, 6000, 1.6, 6)
	p := pattern.PG1()
	// Compare Gpsi-generation ratio worst/best on each graph.
	ratioER := initialVertexGap(t, gER, p)
	ratioPL := initialVertexGap(t, gPL, p)
	if ratioPL < 2*ratioER {
		t.Errorf("power-law gap (%.2f) should dwarf ER gap (%.2f)", ratioPL, ratioER)
	}
}

// expansionWork measures a run's expansion effort in cost-model load units
// (the product of candidate-set sizes per expansion, summed) — the quantity
// the initial-vertex choice actually moves; generated-Gpsi counts barely
// differ because the edge index prunes invalid children before they are sent.
func expansionWork(t *testing.T, g *graph.Graph, p *pattern.Pattern, v int) float64 {
	t.Helper()
	res, err := Run(g, p, Options{Workers: 2, InitialVertex: v})
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, l := range res.Stats.LoadUnits {
		total += l
	}
	if total <= 0 {
		total = 1
	}
	return total
}

func initialVertexGap(t *testing.T, g *graph.Graph, p *pattern.Pattern) float64 {
	lo, hi := 1e18, 0.0
	for v := 0; v < p.N(); v++ {
		w := expansionWork(t, g, p, v)
		if w < lo {
			lo = w
		}
		if w > hi {
			hi = w
		}
	}
	return hi / lo
}

// TestSelectInitialVertexPinned pins the planner's choice for PG1–PG5 on the
// seven dataset analogues and checks it is a function of (pattern, degree
// distribution) alone: 100 calls agree. The estimator used to sum floats in
// map iteration order, so symmetric candidates (pg3's vertices 0 and 2, pg5's
// 1 and 2) traded the last bits of their estimates from call to call and the
// pick followed them. Ties now go to the lowest vertex id — on randgraph's pg5
// that is vertex 1 although vertex 2's estimate is an ulp smaller.
func TestSelectInitialVertexPinned(t *testing.T) {
	patterns := []*pattern.Pattern{pattern.PG1(), pattern.PG2(), pattern.PG3(), pattern.PG4(), pattern.PG5()}
	want := map[string][5]int{
		"livejournal": {0, 0, 0, 0, 4},
		"randgraph":   {0, 0, 1, 0, 1},
		"twitter":     {0, 0, 0, 0, 4},
		"uspatent":    {0, 0, 0, 0, 0},
		"webgoogle":   {0, 0, 0, 0, 4},
		"wikipedia":   {0, 0, 0, 0, 4},
		"wikitalk":    {0, 0, 0, 0, 4},
	}
	if len(want) != len(datasets.Names()) {
		t.Fatalf("pins cover %d datasets, there are %d", len(want), len(datasets.Names()))
	}
	for name, pins := range want {
		g, err := datasets.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		dist := stats.FromHistogram(g.DegreeHistogram())
		for i, p := range patterns {
			p = p.BreakAutomorphisms()
			for call := 0; call < 100; call++ {
				if got := SelectInitialVertex(p, dist); got != pins[i] {
					t.Fatalf("%s on %s: call %d picked initial vertex %d, pinned %d", p.Name(), name, call, got, pins[i])
				}
			}
		}
	}
}
