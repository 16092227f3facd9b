package core

import (
	"sort"
	"strings"
	"testing"

	"psgl/internal/bsp"
	"psgl/internal/gen"
	"psgl/internal/graph"
	"psgl/internal/pattern"
)

// anchorSeeds pins every pattern edge, in both orientations, onto the data
// edge {u, v} — the seed set the delta enumerator uses, reproduced here to
// pin the primitive's contract: the seeded run must find exactly the
// embeddings whose image uses {u, v}, each exactly once (injectivity maps at
// most one pattern edge onto any one data edge).
func anchorSeeds(p *pattern.Pattern, u, v graph.VertexID) []Seed {
	var seeds []Seed
	for _, pe := range p.Edges() {
		seeds = append(seeds,
			Seed{PatternVertices: []int{pe[0], pe[1]}, DataVertices: []graph.VertexID{u, v}},
			Seed{PatternVertices: []int{pe[0], pe[1]}, DataVertices: []graph.VertexID{v, u}},
		)
	}
	return seeds
}

func collectSortedEmbeddings(t *testing.T, g *graph.Graph, p *pattern.Pattern, opts Options) []string {
	t.Helper()
	opts.Collect = true
	res, err := Run(g, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(res.Instances))
	for _, m := range res.Instances {
		keys = append(keys, embeddingKey(m))
	}
	sort.Strings(keys)
	return keys
}

// pickEdge returns a data edge incident to a reasonably connected vertex so
// the anchored enumeration has embeddings to find.
func pickEdge(t *testing.T, g *graph.Graph) (graph.VertexID, graph.VertexID) {
	t.Helper()
	best := graph.VertexID(-1)
	for v := 0; v < g.NumVertices(); v++ {
		if best < 0 || g.Degree(graph.VertexID(v)) > g.Degree(best) {
			best = graph.VertexID(v)
		}
	}
	if best < 0 || g.Degree(best) == 0 {
		t.Fatal("no edges in test graph")
	}
	return best, g.Neighbors(best)[0]
}

// TestSeededEnumerationMatchesFilteredFullRun: a run seeded on one data edge
// must return exactly the full run's embeddings that use that edge.
func TestSeededEnumerationMatchesFilteredFullRun(t *testing.T) {
	g := gen.ChungLu(300, 1200, 1.8, 3)
	u, v := pickEdge(t, g)
	for _, p := range []*pattern.Pattern{pattern.PG1(), pattern.PG2(), pattern.PG3(), pattern.PG5()} {
		full, err := Run(g, p, Options{Workers: 3, Seed: 1, Collect: true})
		if err != nil {
			t.Fatal(err)
		}
		// Filter the full multiset down to embeddings whose image uses {u,v}.
		var want []string
		bp := p.BreakAutomorphisms()
		pEdges := bp.Edges()
		for _, m := range full.Instances {
			for _, pe := range pEdges {
				a, b := m[pe[0]], m[pe[1]]
				if (a == u && b == v) || (a == v && b == u) {
					want = append(want, embeddingKey(m))
					break
				}
			}
		}
		sort.Strings(want)
		got := collectSortedEmbeddings(t, g, p, Options{
			Workers: 3, Seed: 1, Seeds: anchorSeeds(bp, u, v), PlannedPattern: true,
		})
		if !equalStrings(got, want) {
			t.Fatalf("%s: seeded run found %d embeddings, filtered full run %d",
				p.Name(), len(got), len(want))
		}
	}
}

// TestSeededModesBitIdentical: the seeded path returns the same embedding
// multiset across {strict, async} × {local, TCP}.
func TestSeededModesBitIdentical(t *testing.T) {
	g := gen.ChungLu(200, 800, 1.8, 5)
	u, v := pickEdge(t, g)
	p := pattern.PG3().BreakAutomorphisms()
	seeds := anchorSeeds(p, u, v)
	base := Options{Workers: 3, Seed: 2, Seeds: seeds, PlannedPattern: true}
	want := collectSortedEmbeddings(t, g, p, base)
	modes := []struct {
		name string
		mut  func(*Options)
	}{
		{"async-local", func(o *Options) { o.AsyncExchange = true }},
		{"strict-tcp", func(o *Options) { o.Exchange = bsp.NewTCPExchangeFactory() }},
		{"async-tcp", func(o *Options) { o.AsyncExchange = true; o.Exchange = bsp.NewTCPExchangeFactory() }},
		{"identity-order-roundtrip", func(o *Options) {}},
	}
	for _, mode := range modes {
		opts := base
		mode.mut(&opts)
		got := collectSortedEmbeddings(t, g, p, opts)
		if !equalStrings(got, want) {
			t.Fatalf("%s: %d embeddings, want %d", mode.name, len(got), len(want))
		}
	}
}

// TestEmitFilterDropsAndCounts: the filter removes embeddings from every
// output surface and shows up in the pruning breakdown.
func TestEmitFilterDropsAndCounts(t *testing.T) {
	g := gen.ChungLu(200, 800, 1.8, 7)
	p := pattern.PG2()
	all := collectSortedEmbeddings(t, g, p, Options{Workers: 3, Seed: 1})
	var want []string
	for _, key := range all {
		if !strings.HasPrefix(key, "0,") && !strings.Contains(key, ",0,") && !strings.HasSuffix(key, ",0") {
			want = append(want, key)
		}
	}
	filter := func(m []graph.VertexID) bool {
		for _, d := range m {
			if d == 0 {
				return false
			}
		}
		return true
	}
	opts := Options{Workers: 3, Seed: 1, Collect: true, EmitFilter: filter}
	res, err := Run(g, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, 0, len(res.Instances))
	for _, m := range res.Instances {
		got = append(got, embeddingKey(m))
	}
	sort.Strings(got)
	if !equalStrings(got, want) {
		t.Fatalf("filtered run found %d embeddings, want %d", len(got), len(want))
	}
	if res.Count != int64(len(want)) {
		t.Fatalf("Count = %d, want %d", res.Count, len(want))
	}
	if res.Stats.PrunedByFilter != int64(len(all)-len(want)) {
		t.Fatalf("PrunedByFilter = %d, want %d", res.Stats.PrunedByFilter, len(all)-len(want))
	}
}

// TestIdentityOrderCounts: instance counts are invariant to the total order.
func TestIdentityOrderCounts(t *testing.T) {
	g := gen.ChungLu(300, 1200, 1.8, 9)
	for _, p := range []*pattern.Pattern{pattern.PG1(), pattern.PG3(), pattern.PG4()} {
		deg, err := Run(g, p, Options{Workers: 3, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		id, err := Run(g, p, Options{Workers: 3, Seed: 1, IdentityOrder: true})
		if err != nil {
			t.Fatal(err)
		}
		if deg.Count != id.Count {
			t.Fatalf("%s: identity-order count %d != degree-order count %d",
				p.Name(), id.Count, deg.Count)
		}
	}
}

// TestSeedValidation: malformed seeds fail fast; constraint-violating seeds
// are pruned, not errors.
func TestSeedValidation(t *testing.T) {
	g := graph.FromEdges(4, [][2]graph.VertexID{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	p := pattern.Triangle()
	bad := []Options{
		{Seeds: []Seed{{PatternVertices: []int{0}, DataVertices: []graph.VertexID{0, 1}}}},
		{Seeds: []Seed{{PatternVertices: []int{}, DataVertices: []graph.VertexID{}}}},
		{Seeds: []Seed{{PatternVertices: []int{0, 3}, DataVertices: []graph.VertexID{0, 1}}}},
		{Seeds: []Seed{{PatternVertices: []int{0, 0}, DataVertices: []graph.VertexID{0, 1}}}},
		{Seeds: []Seed{{PatternVertices: []int{0, 1}, DataVertices: []graph.VertexID{0, 9}}}},
		{Seeds: []Seed{{PatternVertices: []int{0, 1}, DataVertices: []graph.VertexID{2, 2}}}},
	}
	for i, opts := range bad {
		opts.Workers = 2
		if _, err := Run(g, p, opts); err == nil {
			t.Fatalf("case %d: want validation error", i)
		}
	}
	// A seed pinning a non-edge of the data graph is a silent prune: the run
	// succeeds with zero results and the prune is counted.
	res, err := Run(g, p, Options{
		Workers: 2,
		Seeds:   []Seed{{PatternVertices: []int{0, 1}, DataVertices: []graph.VertexID{0, 2}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 0 {
		t.Fatalf("non-edge seed found %d instances", res.Count)
	}
	if res.Stats.PrunedByVerify != 1 {
		t.Fatalf("PrunedByVerify = %d, want 1", res.Stats.PrunedByVerify)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
