package core

import (
	"errors"
	"math/rand"
	"sort"
	"testing"

	"psgl/internal/bsp"
	"psgl/internal/centralized"
	"psgl/internal/gen"
	"psgl/internal/graph"
	"psgl/internal/pattern"
)

// figure1Graph is the data graph of Figure 1 (vertices 1..6 -> 0..5).
func figure1Graph() *graph.Graph {
	return graph.FromEdges(6, [][2]graph.VertexID{
		{0, 1}, {0, 4}, {0, 5}, {1, 2}, {1, 4}, {2, 3}, {2, 4}, {3, 4}, {4, 5},
	})
}

func TestSquareOnFigure1(t *testing.T) {
	// The paper's running example: exactly the squares 1235, 1256, 2345.
	res, err := Run(figure1Graph(), pattern.Square(), Options{Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 3 {
		t.Fatalf("Count = %d, want 3", res.Count)
	}
	var sets []string
	for _, inst := range res.Instances {
		vs := []int{int(inst[0]), int(inst[1]), int(inst[2]), int(inst[3])}
		sort.Ints(vs)
		sets = append(sets, instKey(vs))
	}
	sort.Strings(sets)
	wantSets := []string{"0-1-4-5", "0-1-2-4", "1-2-3-4"}
	sort.Strings(wantSets)
	for i := range wantSets {
		if sets[i] != wantSets[i] {
			t.Fatalf("instances %v, want %v", sets, wantSets)
		}
	}
}

func instKey(vs []int) string {
	s := ""
	for i, v := range vs {
		if i > 0 {
			s += "-"
		}
		s += string(rune('0' + v))
	}
	return s
}

// TestMatchesOracleAllPatterns is the load-bearing correctness test: PSgL's
// counts must equal the centralized oracle on every catalog pattern over
// several random graphs.
func TestMatchesOracleAllPatterns(t *testing.T) {
	patterns := []*pattern.Pattern{
		pattern.PG1(), pattern.PG2(), pattern.PG3(), pattern.PG4(), pattern.PG5(),
		pattern.Path(4), pattern.Star(3), pattern.Cycle(5), pattern.Clique(5),
	}
	for seed := int64(0); seed < 3; seed++ {
		g := gen.ErdosRenyi(80, 500, seed)
		for _, p := range patterns {
			want := centralized.CountInstances(p, g)
			res, err := Run(g, p, Options{Workers: 3, Seed: seed})
			if err != nil {
				t.Fatalf("%s seed=%d: %v", p.Name(), seed, err)
			}
			if res.Count != want {
				t.Errorf("%s seed=%d: PSgL=%d oracle=%d", p.Name(), seed, res.Count, want)
			}
		}
	}
}

func TestMatchesOracleOnSkewedGraph(t *testing.T) {
	g := gen.ChungLu(400, 1600, 1.7, 9)
	for _, p := range []*pattern.Pattern{pattern.PG1(), pattern.PG2(), pattern.PG3(), pattern.PG4()} {
		want := centralized.CountInstances(p, g)
		res, err := Run(g, p, Options{Workers: 4})
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if res.Count != want {
			t.Errorf("%s: PSgL=%d oracle=%d", p.Name(), res.Count, want)
		}
	}
}

func TestAllStrategiesAgree(t *testing.T) {
	g := gen.ChungLu(300, 1200, 1.8, 4)
	want := centralized.CountInstances(pattern.PG2(), g)
	for _, s := range []Strategy{StrategyRandom, StrategyRoulette, StrategyWorkloadAware} {
		for _, alpha := range []float64{0, 0.5, 1} {
			res, err := Run(g, pattern.PG2(), Options{Workers: 4, Strategy: s, Alpha: alpha, Seed: 11})
			if err != nil {
				t.Fatalf("%v α=%g: %v", s, alpha, err)
			}
			if res.Count != want {
				t.Errorf("%v α=%g: count=%d want=%d", s, alpha, res.Count, want)
			}
		}
	}
}

func TestAllInitialVerticesAgree(t *testing.T) {
	g := gen.ErdosRenyi(120, 700, 2)
	for _, p := range []*pattern.Pattern{pattern.PG2(), pattern.PG4(), pattern.PG5()} {
		want := centralized.CountInstances(p, g)
		for v := 0; v < p.N(); v++ {
			res, err := Run(g, p, Options{Workers: 3, InitialVertex: v})
			if err != nil {
				t.Fatalf("%s init=%d: %v", p.Name(), v, err)
			}
			if res.Count != want {
				t.Errorf("%s init=%d: count=%d want=%d", p.Name(), v, res.Count, want)
			}
			if res.Stats.InitialVertex != v {
				t.Errorf("%s: InitialVertex stat = %d, want %d", p.Name(), res.Stats.InitialVertex, v)
			}
		}
	}
}

func TestWithoutEdgeIndexAgrees(t *testing.T) {
	g := gen.ChungLu(250, 1000, 1.9, 3)
	for _, p := range []*pattern.Pattern{pattern.PG2(), pattern.PG3(), pattern.PG4()} {
		want := centralized.CountInstances(p, g)
		withIx, err := Run(g, p, Options{Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		withoutIx, err := Run(g, p, Options{Workers: 3, DisableEdgeIndex: true})
		if err != nil {
			t.Fatal(err)
		}
		if withIx.Count != want || withoutIx.Count != want {
			t.Errorf("%s: with=%d without=%d want=%d", p.Name(), withIx.Count, withoutIx.Count, want)
		}
		// Table 2's claim: the index reduces the number of generated Gpsis
		// whenever invalid partial instances exist.
		if p.Name() != "square" && withoutIx.Stats.GpsiGenerated < withIx.Stats.GpsiGenerated {
			t.Errorf("%s: index increased Gpsi count: with=%d without=%d",
				p.Name(), withIx.Stats.GpsiGenerated, withoutIx.Stats.GpsiGenerated)
		}
	}
}

func TestWorkerCountsAgree(t *testing.T) {
	g := gen.ErdosRenyi(150, 900, 5)
	want := centralized.CountInstances(pattern.PG3(), g)
	for _, k := range []int{1, 2, 5, 9, 16} {
		res, err := Run(g, pattern.PG3(), Options{Workers: k})
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		if res.Count != want {
			t.Errorf("K=%d: count=%d want=%d", k, res.Count, want)
		}
	}
}

func TestDeterministicForFixedSeed(t *testing.T) {
	g := gen.ChungLu(200, 800, 1.8, 7)
	run := func() *Result {
		res, err := Run(g, pattern.PG2(), Options{Workers: 4, Seed: 99, Strategy: StrategyRandom})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Count != b.Count || a.Stats.GpsiGenerated != b.Stats.GpsiGenerated {
		t.Fatalf("same seed diverged: count %d/%d gpsi %d/%d",
			a.Count, b.Count, a.Stats.GpsiGenerated, b.Stats.GpsiGenerated)
	}
}

func TestAutomorphismBreakingAblation(t *testing.T) {
	g := gen.ErdosRenyi(60, 350, 4)
	p := pattern.PG1()
	broken, err := Run(g, p, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := Run(g, p, Options{Workers: 2, DisableAutomorphismBreaking: true})
	if err != nil {
		t.Fatal(err)
	}
	if raw.Count != broken.Count*int64(p.NumAutomorphisms()) {
		t.Fatalf("raw=%d broken=%d aut=%d", raw.Count, broken.Count, p.NumAutomorphisms())
	}
}

func TestOOMBudget(t *testing.T) {
	g := gen.ChungLu(500, 2500, 1.8, 6)
	_, err := Run(g, pattern.PG2(), Options{Workers: 2, MaxIntermediate: 100})
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	// A generous budget must not trip.
	if _, err := Run(g, pattern.PG1(), Options{Workers: 2, MaxIntermediate: 10_000_000}); err != nil {
		t.Fatalf("generous budget tripped: %v", err)
	}
}

// TestLocalExpansionRespectsBudget: with one worker every Gpsi is expanded
// locally — sent to the worker that made it — and the budget counts those
// sends too.
func TestLocalExpansionRespectsBudget(t *testing.T) {
	g := gen.ChungLu(500, 2500, 1.7, 57)
	_, err := Run(g, pattern.PG2(), Options{Workers: 1, MaxIntermediate: 100})
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
}

func TestTheorem1IterationBounds(t *testing.T) {
	// For a level-synchronous run, |MVC| <= S_expansion <= |Vp| - 1 where
	// S_expansion counts supersteps that processed Gpsis. Our supersteps =
	// 1 (init) + expansion steps, the last of which produces no messages.
	g := gen.ErdosRenyi(100, 600, 8)
	for _, p := range []*pattern.Pattern{pattern.PG1(), pattern.PG2(), pattern.PG3(), pattern.PG4(), pattern.PG5()} {
		res, err := Run(g, p, Options{Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		expansionSteps := res.Stats.Supersteps - 1
		if expansionSteps < p.MinVertexCoverSize() || expansionSteps > p.N()-1 {
			t.Errorf("%s: expansion steps=%d, want within [|MVC|=%d, |Vp|-1=%d]",
				p.Name(), expansionSteps, p.MinVertexCoverSize(), p.N()-1)
		}
	}
}

func TestStatsPopulated(t *testing.T) {
	g := gen.ChungLu(300, 1500, 2.0, 2)
	res, err := Run(g, pattern.PG3(), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.GpsiGenerated <= 0 || s.GpsiProcessed <= 0 {
		t.Error("Gpsi counters empty")
	}
	if s.GpsiProcessed != s.GpsiGenerated {
		t.Errorf("every generated Gpsi should be processed: gen=%d proc=%d", s.GpsiGenerated, s.GpsiProcessed)
	}
	if len(s.WorkerTime) != 4 || len(s.LoadUnits) != 4 || len(s.WorkerMessages) != 4 {
		t.Error("per-worker stats wrong length")
	}
	if s.EdgeIndexBytes <= 0 {
		t.Error("edge index bytes missing")
	}
	if s.EdgeIndexQueries <= 0 {
		t.Error("index never queried for PG3")
	}
	if s.SimulatedMakespan <= 0 || s.WallTime <= 0 {
		t.Error("time stats missing")
	}
	if s.Results != res.Count {
		t.Error("Results != Count")
	}
}

func TestTCPExchangeEndToEnd(t *testing.T) {
	g := gen.ErdosRenyi(100, 500, 12)
	want := centralized.CountInstances(pattern.PG1(), g)
	res, err := Run(g, pattern.PG1(), Options{Workers: 3, Exchange: bsp.NewTCPExchangeFactory()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != want {
		t.Fatalf("TCP run count=%d want=%d", res.Count, want)
	}
}

func TestEdgeAndVertexPatterns(t *testing.T) {
	g := figure1Graph()
	res, err := Run(g, pattern.Clique(2), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != g.NumEdges() {
		t.Fatalf("edge pattern count=%d want |E|=%d", res.Count, g.NumEdges())
	}
	v1 := pattern.MustNew("vertex", 1, nil)
	res, err = Run(g, v1, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != int64(g.NumVertices()) {
		t.Fatalf("vertex pattern count=%d want |V|=%d", res.Count, g.NumVertices())
	}
}

func TestInvalidInputs(t *testing.T) {
	g := figure1Graph()
	if _, err := Run(nil, pattern.PG1(), Options{}); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := Run(g, nil, Options{}); err == nil {
		t.Error("nil pattern accepted")
	}
	if _, err := Run(g, pattern.PG1(), Options{InitialVertex: 7}); err == nil {
		t.Error("out-of-range initial vertex accepted")
	}
}

func TestCollectedInstancesAreValid(t *testing.T) {
	g := gen.ErdosRenyi(60, 400, 21)
	p := pattern.PG3()
	res, err := Run(g, p, Options{Workers: 3, Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(res.Instances)) != res.Count {
		t.Fatalf("collected %d, count %d", len(res.Instances), res.Count)
	}
	seen := map[string]bool{}
	for _, inst := range res.Instances {
		for _, e := range p.Edges() {
			if !g.HasEdge(inst[e[0]], inst[e[1]]) {
				t.Fatalf("instance %v missing edge %v", inst, e)
			}
		}
		key := ""
		for _, v := range inst {
			key += string(rune(v)) + ","
		}
		if seen[key] {
			t.Fatalf("duplicate instance %v", inst)
		}
		seen[key] = true
	}
}

func TestEmptyAndSparseGraphs(t *testing.T) {
	empty := graph.NewBuilder(10).Build()
	res, err := Run(empty, pattern.PG1(), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 0 {
		t.Fatalf("triangles in edgeless graph = %d", res.Count)
	}
	// A single edge has no triangles but one edge instance.
	one := graph.FromEdges(2, [][2]graph.VertexID{{0, 1}})
	res, err = Run(one, pattern.PG1(), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 0 {
		t.Fatalf("triangle in single edge = %d", res.Count)
	}
}

func TestRandomizedOracleProperty(t *testing.T) {
	// Property-style sweep: random graphs x random catalog patterns.
	rng := rand.New(rand.NewSource(500))
	patterns := []*pattern.Pattern{
		pattern.PG1(), pattern.PG2(), pattern.PG3(), pattern.PG4(),
		pattern.Path(3), pattern.Star(4), pattern.Cycle(6),
	}
	for trial := 0; trial < 10; trial++ {
		n := 30 + rng.Intn(60)
		m := int64(2*n + rng.Intn(4*n))
		g := gen.ErdosRenyi(n, m, rng.Int63())
		p := patterns[rng.Intn(len(patterns))]
		opts := Options{
			Workers:  1 + rng.Intn(5),
			Strategy: Strategy(rng.Intn(3)),
			Seed:     rng.Int63(),
		}
		want := centralized.CountInstances(p, g)
		res, err := Run(g, p, opts)
		if err != nil {
			t.Fatalf("trial %d (%s): %v", trial, p.Name(), err)
		}
		if res.Count != want {
			t.Errorf("trial %d: %s on n=%d m=%d K=%d strat=%v: got %d want %d",
				trial, p.Name(), n, m, opts.Workers, opts.Strategy, res.Count, want)
		}
	}
}

func BenchmarkPSgLTriangle(b *testing.B) {
	g := gen.ChungLu(5000, 25000, 1.8, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(g, pattern.PG1(), Options{Workers: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPSgLSquare(b *testing.B) {
	g := gen.ChungLu(2000, 10000, 1.8, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(g, pattern.PG2(), Options{Workers: 4}); err != nil {
			b.Fatal(err)
		}
	}
}
