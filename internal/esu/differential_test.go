package esu

import (
	"testing"

	"psgl/internal/centralized"
	"psgl/internal/gen"
	"psgl/internal/graph"
	"psgl/internal/pattern"
)

func testChungLu(t testing.TB, n int, m int64, gamma float64, seed int64) *graph.Graph {
	t.Helper()
	return gen.ChungLu(n, m, gamma, seed)
}

// patternGraph turns a catalog pattern (pg1 = triangle, pg3 = diamond) into a
// tiny data graph — the fixed edge-case inputs of the differential suite.
func patternGraph(t *testing.T, name string) *graph.Graph {
	t.Helper()
	p, err := pattern.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	edges := make([][2]graph.VertexID, 0, p.NumEdges())
	for _, e := range p.Edges() {
		edges = append(edges, [2]graph.VertexID{graph.VertexID(e[0]), graph.VertexID(e[1])})
	}
	return graph.FromEdges(p.N(), edges)
}

// compareWithOracle checks the parallel census histogram against the naive
// centralized oracle bit for bit. The two engines canonicalize differently
// (degree-refined min vs all-permutations min), so each esu class
// representative is re-canonicalized through the oracle's function first;
// both keys name the same isomorphism class.
func compareWithOracle(t *testing.T, g *graph.Graph, k, workers int) {
	t.Helper()
	res, err := Count(g, k, Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[uint32]int64, len(res.Classes))
	for _, c := range res.Classes {
		got[centralized.CanonicalSubgraphCode(k, c.Code)] += c.Count
	}
	want, wantTotal := centralized.MotifCensus(g, k)
	if res.Subgraphs != wantTotal {
		t.Fatalf("k=%d: esu found %d subgraphs, oracle %d", k, res.Subgraphs, wantTotal)
	}
	if len(got) != len(want) {
		t.Fatalf("k=%d: esu %d classes, oracle %d (esu=%v oracle=%v)", k, len(got), len(want), got, want)
	}
	for code, cnt := range want {
		if got[code] != cnt {
			t.Fatalf("k=%d class %#x: esu %d, oracle %d", k, code, got[code], cnt)
		}
	}
}

// TestCensusDifferential is the differential acceptance suite: k=3,4 census
// on Chung-Lu graphs (3 seeds × 2 degree profiles) plus the pg1/pg3 pattern
// shapes as tiny data graphs, parallel esu vs the naive oracle. CI runs the
// package under -race, so this also exercises the shared memo cache and the
// chunked work claim concurrently.
func TestCensusDifferential(t *testing.T) {
	type config struct {
		name  string
		n     int
		m     int64
		gamma float64
	}
	configs := []config{
		{"skewed", 200, 400, 1.8},
		{"mild", 300, 600, 2.5},
	}
	seeds := []int64{1, 2, 3}
	for _, k := range []int{3, 4} {
		for _, cfg := range configs {
			for _, seed := range seeds {
				g := testChungLu(t, cfg.n, cfg.m, cfg.gamma, seed)
				compareWithOracle(t, g, k, 4)
			}
		}
	}
	// Pattern-shape edge cases: data graph == one motif instance.
	for _, name := range []string{"pg1", "pg3"} {
		g := patternGraph(t, name)
		for _, k := range []int{3, 4} {
			if k > g.NumVertices() {
				continue
			}
			compareWithOracle(t, g, k, 2)
		}
	}
}

// TestCensusSteadyStateAllocs pins the enumeration hot path: once a walker's
// extension lists have grown, enumerating allocates nothing.
func TestCensusSteadyStateAllocs(t *testing.T) {
	g := testChungLu(t, 400, 1200, 2.0, 5)
	w := newWalker(g, 4)
	for v := 0; v < g.NumVertices(); v++ {
		w.walk(graph.VertexID(v)) // warm: the extension lists
	}
	w.classify(NewCanonCache(4))
	if w.total == 0 {
		t.Fatal("warmup enumerated nothing; graph too sparse for the pin")
	}
	allocs := testing.AllocsPerRun(10, func() {
		for v := 0; v < 50; v++ {
			w.walk(graph.VertexID(v))
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state enumeration allocates %.1f times per pass, want 0", allocs)
	}
}

// TestCensusAboveOldCap runs a k=3 census on a graph past 65 536 vertices
// (the dense-adjacency engine's former cap) and checks it against two closed
// forms: the triangle class equals the oracle's triangle count,
// and the total equals Σ C(deg, 2) − 2·triangles (every 2-path centred on a
// vertex, with each triangle's three collapsed into one subgraph).
func TestCensusAboveOldCap(t *testing.T) {
	g := testChungLu(t, 70000, 140000, 2.5, 3)
	if g.NumVertices() <= 1<<16 {
		t.Fatalf("graph has %d vertices, the test needs more than 65 536", g.NumVertices())
	}
	res, err := Count(g, 3, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	tri := centralized.CountTriangles(g)
	var paths int64
	for v := 0; v < g.NumVertices(); v++ {
		d := int64(g.Degree(graph.VertexID(v)))
		paths += d * (d - 1) / 2
	}
	if want := paths - 2*tri; res.Subgraphs != want {
		t.Fatalf("k=3 census of %d vertices: %d subgraphs, want %d", g.NumVertices(), res.Subgraphs, want)
	}
	if got := res.Histogram()[0b111]; got != tri {
		t.Fatalf("triangle class %d, oracle %d", got, tri)
	}
}
