package core

import (
	"testing"

	"psgl/internal/gen"
	"psgl/internal/pattern"
	"psgl/internal/stats"
)

// loadImbalance runs PG2 with the given strategy on a skewed graph and
// returns the per-worker load-unit imbalance factor (max/mean), Figure 5's
// quantity of interest.
func loadImbalance(t *testing.T, strategy Strategy, alpha float64, workers int) float64 {
	t.Helper()
	g := gen.ChungLu(3000, 12000, 1.5, 42)
	res, err := Run(g, pattern.PG2(), Options{
		Workers:  workers,
		Strategy: strategy,
		Alpha:    alpha,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	loads := make([]float64, len(res.Stats.LoadUnits))
	copy(loads, res.Stats.LoadUnits)
	return stats.Summarize(loads).ImbalanceFactor
}

// TestWorkloadAwareBalancesBetterThanRandom reproduces the qualitative claim
// of Figures 3 and 5: on a skewed graph with a pattern that generates new
// Gpsis in middle iterations, the workload-aware strategy (α=0.5) achieves a
// visibly better balance than random distribution.
func TestWorkloadAwareBalancesBetterThanRandom(t *testing.T) {
	const workers = 8
	random := loadImbalance(t, StrategyRandom, 0, workers)
	wa := loadImbalance(t, StrategyWorkloadAware, 0.5, workers)
	t.Logf("imbalance: random=%.2f wa(0.5)=%.2f", random, wa)
	if wa > random {
		t.Errorf("WA-0.5 imbalance %.2f worse than random %.2f", wa, random)
	}
}

func TestAllStrategiesProduceFiniteLoads(t *testing.T) {
	for _, s := range []Strategy{StrategyRandom, StrategyRoulette, StrategyWorkloadAware} {
		im := loadImbalance(t, s, 0.5, 4)
		if im < 1 || im > 1000 {
			t.Errorf("%v: imbalance %.2f implausible", s, im)
		}
	}
}

func TestStrategyStringNames(t *testing.T) {
	cases := map[Strategy]string{
		StrategyRandom:        "Random",
		StrategyRoulette:      "Roulette",
		StrategyWorkloadAware: "WA",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Errorf("String() = %q, want %q", s.String(), want)
		}
	}
	if Strategy(99).String() == "" {
		t.Error("unknown strategy should still render")
	}
}

// TestRouletteAvoidsHighDegreeExpansion checks Heuristic 1: under the
// roulette strategy, expansions happen at lower-degree data vertices than
// under the "anti-roulette" (always pick the max-degree GRAY), measured by
// accumulated load units (which grow with the expanding vertex's degree).
func TestRouletteAvoidsHighDegreeExpansion(t *testing.T) {
	g := gen.ChungLu(2000, 8000, 1.6, 13)
	run := func(s Strategy) float64 {
		res, err := Run(g, pattern.PG2(), Options{Workers: 4, Strategy: s, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		total := 0.0
		for _, l := range res.Stats.LoadUnits {
			total += l
		}
		return total
	}
	// Roulette prefers small-degree expansion; random is degree-blind. Both
	// count the same instances, so roulette should not do more total work.
	roulette, random := run(StrategyRoulette), run(StrategyRandom)
	t.Logf("total load: roulette=%.0f random=%.0f", roulette, random)
	if roulette > 1.3*random {
		t.Errorf("roulette total work %.0f far exceeds random %.0f", roulette, random)
	}
}

func TestExpandCostMatchesBinomial(t *testing.T) {
	g := gen.ErdosRenyi(50, 200, 1)
	e, err := newEngine(Prepare(g, NewOptions()), pattern.PG4(), NewOptions().normalized())
	if err != nil {
		t.Fatal(err)
	}
	m := gpsi{N: 4}
	for i := range m.Map {
		m.Map[i] = unmapped
	}
	// A Gpsi holds ranks: caller vertex 7 is mapped as its rank.
	var v int32 = 7
	m.Map[0] = e.rankOf(v)
	// GRAY vertex 0 of K4 has 3 WHITE neighbors.
	want := stats.Binomial(g.Degree(v), 3)
	if want < 1 {
		want = 1
	}
	if got := e.expandCost(&m, 0); got != want {
		t.Errorf("expandCost = %g, want %g", got, want)
	}
}

func TestXorshiftBasics(t *testing.T) {
	x := newXorshift(0) // zero seed must be replaced
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		seen[x.next()] = true
	}
	if len(seen) < 1000 {
		t.Errorf("xorshift produced %d distinct values of 1000", len(seen))
	}
	for i := 0; i < 1000; i++ {
		v := x.intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("intn out of range: %d", v)
		}
		f := x.float64v()
		if f < 0 || f >= 1 {
			t.Fatalf("float64v out of range: %g", f)
		}
	}
}
