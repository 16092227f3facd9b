package core

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"psgl/internal/bsp"
	"psgl/internal/centralized"
	"psgl/internal/gen"
	"psgl/internal/graph"
	"psgl/internal/obs"
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

// TestAllStrategiesAgree counts in the partitioned model, the one with
// distribution strategies, under each strategy and α.
func TestAllStrategiesAgree(t *testing.T) {
	g := gen.ChungLu(300, 1200, 1.8, 4)
	want := centralized.CountInstances(pattern.PG2(), g)
	opts := Options{Workers: 4, Seed: 11}
	for _, s := range strategies {
		for _, alpha := range []float64{0, 0.5, 1} {
			res, err := PreparePartitioned(g, opts, BloomBitsPerEdge, s, alpha).RunContext(context.Background(), pattern.PG2(), opts)
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

// TestWithoutEdgeIndexAgrees runs Table 2's ablation in the partitioned model.
func TestWithoutEdgeIndexAgrees(t *testing.T) {
	g := gen.ChungLu(250, 1000, 1.9, 3)
	for _, p := range []*pattern.Pattern{pattern.PG2(), pattern.PG3(), pattern.PG4()} {
		want := centralized.CountInstances(p, g)
		withIx, err := runPartitioned(g, p, Options{Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		withoutIx, err := runWithoutIndex(g, p, Options{Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		if withIx.Count != want || withoutIx.Count != want {
			t.Errorf("%s: with=%d without=%d want=%d", p.Name(), withIx.Count, withoutIx.Count, want)
		}
		// Table 2's claim: the index reduces the number of generated Gpsis
		// whenever invalid partial instances exist, as they do here.
		if withoutIx.Stats.GpsiGenerated <= withIx.Stats.GpsiGenerated {
			t.Errorf("%s: index did not lower the Gpsi count: with=%d without=%d",
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
		opts := Options{Workers: 4, Seed: 99}
		res, err := partitionedBy(StrategyRandom)(g, opts).RunContext(context.Background(), pattern.PG2(), opts)
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
	raw, err := Run(g, p.StripOrders(), Options{Workers: 2, PlannedPattern: true})
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

// TestInitStopsMidSeeding: a strict Init expands every seed it builds, a
// superstep's worth of work outside Process, so it polls the stop test as the
// inbox delivery does. A strict count on a 40 000-vertex graph is stopped
// while Init is seeding, from the first instance (found in place in superstep
// 0): its context is canceled there, or that call outlasts the context's
// deadline. The run returns the cancel or deadline error having processed a
// sliver of the Gpsis a full run processes. (The counters of an interrupted superstep
// are merged when the run tears down, so the observer sees how far Init got.)
func TestInitStopsMidSeeding(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 40k-vertex graph")
	}
	g := gen.ChungLu(40000, 120000, 2.5, 1)
	// Prepared up front, so the deadline bounds the run alone.
	pr := Prepare(g, Options{Workers: 2, Seed: 1})
	full, err := pr.RunContext(context.Background(), pattern.Triangle(), Options{Workers: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		timeout time.Duration
		want    error
	}{
		{"canceled", 0, context.Canceled},
		{"deadline", 250 * time.Millisecond, context.DeadlineExceeded},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			if tc.timeout > 0 {
				ctx, cancel = context.WithTimeout(context.Background(), tc.timeout)
			}
			defer cancel()
			var once sync.Once
			o := obs.New(nil)
			opts := Options{Workers: 2, Seed: 1, Observer: o}
			opts.OnInstance = func([]graph.VertexID) {
				once.Do(func() {
					if tc.timeout == 0 {
						cancel()
					}
					// Waiting lets the deadline's timer run: one set to fire
					// while every P is busy expanding can fire late.
					<-ctx.Done()
				})
			}
			_, err := pr.RunContext(ctx, pattern.Triangle(), opts)
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			processed := o.Counters()["processed"]
			t.Logf("stopped after %d of a full run's %d Gpsis", processed, full.Stats.GpsiProcessed)
			if processed == 0 || processed > full.Stats.GpsiProcessed/4 {
				t.Errorf("Init processed %d Gpsis before it stopped; a full run processes %d",
					processed, full.Stats.GpsiProcessed)
			}
		})
	}
}

func TestTheorem1IterationBounds(t *testing.T) {
	// For a level-synchronous run, |MVC| <= S_expansion <= |Vp| - 1 where
	// S_expansion counts supersteps that processed Gpsis. Seeds are expanded
	// where Init builds them, so every superstep is an expansion step (the
	// last produces no messages): supersteps = expansion steps. The theorem is
	// about the paper's partitioned model; in one memory domain a clique
	// completes where it is seeded.
	g := gen.ErdosRenyi(100, 600, 8)
	for _, p := range []*pattern.Pattern{pattern.PG1(), pattern.PG2(), pattern.PG3(), pattern.PG4(), pattern.PG5()} {
		res, err := runPartitioned(g, p, Options{Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		expansionSteps := res.Stats.Supersteps
		if expansionSteps < p.MinVertexCoverSize() || expansionSteps > p.N()-1 {
			t.Errorf("%s: expansion steps=%d, want within [|MVC|=%d, |Vp|-1=%d]",
				p.Name(), expansionSteps, p.MinVertexCoverSize(), p.N()-1)
		}
	}
}

// TestStatsPopulated checks both memory models: only the partitioned one has
// an edge index to size and query.
func TestStatsPopulated(t *testing.T) {
	g := gen.ChungLu(300, 1500, 2.0, 2)
	for _, partitioned := range []bool{false, true} {
		run := Run
		if partitioned {
			run = runPartitioned
		}
		res, err := run(g, pattern.PG3(), Options{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		checkStatsPopulated(t, res, partitioned)
	}
}

func checkStatsPopulated(t *testing.T, res *Result, partitioned bool) {
	t.Helper()
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
	if got := s.EdgeIndexBytes > 0; got != partitioned {
		t.Errorf("partitioned=%v: edge index bytes %d", partitioned, s.EdgeIndexBytes)
	}
	if got := s.EdgeIndexQueries > 0; got != partitioned {
		t.Errorf("partitioned=%v: %d index queries for PG3", partitioned, s.EdgeIndexQueries)
	}
	if s.SimulatedMakespan <= 0 || s.WallTime <= 0 {
		t.Error("time stats missing")
	}
	if s.Results != res.Count {
		t.Error("Results != Count")
	}
}

// TestTCPExchangeEndToEnd lists squares: a triangle completes where it is
// seeded and sends nothing over the exchange.
func TestTCPExchangeEndToEnd(t *testing.T) {
	g := gen.ErdosRenyi(100, 500, 12)
	want := centralized.CountInstances(pattern.PG2(), g)
	res, err := Run(g, pattern.PG2(), Options{Workers: 3, Exchange: bsp.NewTCPExchangeFactory()})
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
		workers, model := 1+rng.Intn(5), runModels[rng.Intn(len(runModels))]
		opts := Options{Workers: workers, Seed: rng.Int63()}
		want := centralized.CountInstances(p, g)
		res, err := model.run(g, p, opts)
		if err != nil {
			t.Fatalf("trial %d (%s): %v", trial, p.Name(), err)
		}
		if res.Count != want {
			t.Errorf("trial %d: %s on n=%d m=%d K=%d %s: got %d want %d",
				trial, p.Name(), n, m, opts.Workers, model.name, res.Count, want)
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

// BenchmarkPSgLDiamond lists the diamond on list-compute's graph shape with two
// workers: its chord is the closing edge combine intersects.
func BenchmarkPSgLDiamond(b *testing.B) {
	g := gen.ChungLu(15000, 75000, 2.2, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(g, pattern.PG3(), Options{Workers: 2}); err != nil {
			b.Fatal(err)
		}
	}
}
