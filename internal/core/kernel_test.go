package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"psgl/internal/bsp"
	"psgl/internal/gen"
	"psgl/internal/graph"
	"psgl/internal/pattern"
)

// kernelCase is one run shape of the kernel exactness tests: a pattern and
// the options it needs beyond the mode under test.
type kernelCase struct {
	name string
	p    *pattern.Pattern
	opts Options
}

// kernelCases are pg1–pg5, a labelled diamond over labelled data and a run
// seeded on one data edge, on g.
func kernelCases(t *testing.T, g *graph.Graph) []kernelCase {
	var cases []kernelCase
	for _, p := range []*pattern.Pattern{pattern.PG1(), pattern.PG2(), pattern.PG3(), pattern.PG4(), pattern.PG5()} {
		cases = append(cases, kernelCase{p.Name(), p, Options{}})
	}
	lp, err := pattern.PG3().WithLabels([]int{0, 1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, kernelCase{"labelled", lp, Options{DataLabels: randomLabels(g.NumVertices(), 2, 5)}})
	u, v := pickEdge(t, g)
	bp := pattern.PG3().BreakAutomorphisms()
	return append(cases, kernelCase{"seeded", bp, Options{Seeds: anchorSeeds(bp, u, v), PlannedPattern: true}})
}

// TestLeafCountMatchesEmission: a run that only counts adds the survivors of
// its last combine slot to the results at once (the leaf count) instead of
// finalizing each embedding. It must report what the same run reports when an
// OnInstance hook makes it finalize every embedding: the same Stats (all but
// clocks in strict runs; logicalStats in pipelined ones), and as many
// OnInstance calls as Count. Every memory model, policy, worker count and
// transport runs, so the leaf count is checked in combine's loop, in
// combineMeet, in the one-slot shortcut and with pending edges (the
// partitioned model, where such a survivor still descends). Where a
// pipelined run's Gpsi totals depend on its routing, only the counts must
// agree (routedByOrder).
func TestLeafCountMatchesEmission(t *testing.T) {
	g := gen.ChungLu(150, 700, 2.1, 4)
	models := []struct {
		name    string
		prepare func(Options) *Prepared
	}{
		{"one-domain", func(o Options) *Prepared { return Prepare(g, o) }},
		{"partitioned", func(o Options) *Prepared { return PreparePartitioned(g, o, BloomBitsPerEdge) }},
		{"no-index", func(o Options) *Prepared { return PreparePartitioned(g, o, 0) }},
	}
	leaves := int64(0)
	for _, c := range kernelCases(t, g) {
		for _, model := range models {
			for k := 1; k <= 3; k++ {
				for _, async := range []bool{false, true} {
					for _, tcp := range []bool{false, true} {
						name := fmt.Sprintf("%s/%s/K=%d/async=%v/tcp=%v", c.name, model.name, k, async, tcp)
						opts := c.opts
						opts.Workers, opts.Seed, opts.AsyncExchange = k, 7, async
						if tcp {
							opts.Exchange = bsp.NewTCPExchangeFactory()
						}
						pr := model.prepare(opts)
						counted, err := pr.RunContext(context.Background(), c.p, opts)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						var calls atomic.Int64
						emitting := opts
						emitting.OnInstance = func([]graph.VertexID) { calls.Add(1) }
						emitted, err := pr.RunContext(context.Background(), c.p, emitting)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if calls.Load() != emitted.Count || counted.Count != emitted.Count {
							t.Fatalf("%s: counted %d, emitted Count %d with %d OnInstance calls",
								name, counted.Count, emitted.Count, calls.Load())
						}
						if async && (model.name != "one-domain" || routedByOrder(c.p)) {
							continue
						}
						if got, want := logicalStats(counted.Stats, async), logicalStats(emitted.Stats, async); got != want {
							t.Fatalf("%s: the counting run's stats\n%s\ndiffer from the emitting run's\n%s", name, got, want)
						}
						leaves += counted.Count
					}
				}
			}
		}
	}
	if leaves == 0 {
		t.Fatal("no run found an instance: the test graph checks nothing")
	}
}

// routedByOrder reports whether the Gpsi totals of a pipelined run of p in
// one memory domain depend on its routing: a house's do, since the GRAY
// vertex the strategy picks changes what is expanded next, and a
// pipelined worker picks in processing order. In the partitioned model every
// pattern's do, since routing decides where a closing edge is checked.
func routedByOrder(p *pattern.Pattern) bool { return p.Name() == pattern.PG5().Name() }

// TestDegreeFloorMatchesPerCandidateTest: on a degree-ordered state the
// degree filter is a window bound (the floor); a state patched from it with
// no edits has the same graph, order and owners but no floor, so its runs
// test every candidate's degree. Both must report the same Stats, pruning
// split included, at one to three workers under both policies (a pipelined
// house: the count only, see routedByOrder): pg1–pg5 on a skewed graph with
// the bitset AND path off and on, and, on hubEars, strict runs of patterns
// whose degree-3 vertex is drawn from the AND of two hubs' rows at every
// initial vertex, so that AND's survivors include vertices below the floor
// (pipelined, these patterns' Gpsi totals follow the routing).
func TestDegreeFloorMatchesPerCandidateTest(t *testing.T) {
	catalog := []*pattern.Pattern{pattern.PG1(), pattern.PG2(), pattern.PG3(), pattern.PG4(), pattern.PG5()}
	tail := pattern.MustNew("square-with-tail", 5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {2, 4}})
	setups := []struct {
		name     string
		g        *graph.Graph
		hubs     int // bitmapMinDegree; 0 keeps the default, under which this graph has no hub
		patterns []*pattern.Pattern
		initials []int
		policies []bool // AsyncExchange values
	}{
		{"chunglu", gen.ChungLu(300, 1500, 2.0, 2), 0, catalog, []int{-1}, []bool{false, true}},
		{"chunglu-hubs", gen.ChungLu(300, 1500, 2.0, 2), 4, catalog, []int{-1}, []bool{false, true}},
		{"hub-ears", hubEars(8), 8, []*pattern.Pattern{tail, pattern.PG5()}, []int{0, 1, 2, 3, 4}, []bool{false}},
	}
	var pruned, and int64
	for _, su := range setups {
		for k := 1; k <= 3; k++ {
			for _, async := range su.policies {
				opts := Options{Workers: k, Seed: 3, AsyncExchange: async, bitmapMinDegree: su.hubs}
				floored := Prepare(su.g, opts)
				perCandidate := floored.Patch(su.g, nil, nil)
				if perCandidate.byDegree || !floored.byDegree {
					t.Fatal("a prepared state must be degree-ordered and a patched one not")
				}
				for _, p := range su.patterns {
					for _, initial := range su.initials {
						name := fmt.Sprintf("%s/%s/initial=%d/K=%d/async=%v", su.name, p.Name(), initial, k, async)
						opts.InitialVertex = initial
						want, err := perCandidate.RunContext(context.Background(), p, opts)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						got, err := floored.RunContext(context.Background(), p, opts)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if async && routedByOrder(p) {
							if got.Count != want.Count {
								t.Fatalf("%s: count %d with the floor, %d per candidate", name, got.Count, want.Count)
							}
						} else if g, w := logicalStats(got.Stats, async), logicalStats(want.Stats, async); g != w {
							t.Fatalf("%s: with the floor\n%s\nper candidate\n%s", name, g, w)
						}
						pruned += got.Stats.PrunedByDegree
						and += got.Stats.BitsetAndCandidates
					}
				}
			}
		}
	}
	if pruned == 0 || and == 0 {
		t.Fatalf("pruned by degree %d, bitset ANDs %d: the floor or the AND path never ran", pruned, and)
	}
}

// hubEars is a clique of n hubs in which every pair of hubs shares two more
// neighbors of degree 2 (its ears).
func hubEars(n int) *graph.Graph {
	b := graph.NewBuilder(n * n)
	ear := graph.VertexID(n)
	for a := range graph.VertexID(n) {
		for c := a + 1; c < graph.VertexID(n); c++ {
			b.AddEdge(a, c)
			for range 2 {
				b.AddEdge(a, ear)
				b.AddEdge(c, ear)
				ear++
			}
		}
	}
	return b.Build()
}

// TestDegreeFloorIsFirstRankOfDegree: floor[pv] is the first rank whose
// degree reaches pv's, on a graph where most degrees are shared by many
// vertices; a patched or identity-order state has no floor and tests each
// candidate's degree against pv's.
func TestDegreeFloorIsFirstRankOfDegree(t *testing.T) {
	g := gen.ErdosRenyi(400, 1000, 9) // degrees 0–~12, each shared by dozens
	opts := Options{Workers: 2, Seed: 1}
	pr := Prepare(g, opts)
	identity := opts
	identity.IdentityOrder = true
	for _, p := range []*pattern.Pattern{pattern.PG1(), pattern.PG4(), pattern.PG5(), pattern.Star(5), pattern.Star(9)} {
		e, err := newEngine(pr, p, opts.normalized())
		if err != nil {
			t.Fatal(err)
		}
		for pv := range p.N() {
			first := 0
			for first < pr.g.NumVertices() && pr.g.Degree(graph.VertexID(first)) < p.Degree(pv) {
				first++
			}
			if int(e.floor[pv]) != first || e.minDeg[pv] != 0 {
				t.Errorf("%s vertex %d (degree %d): floor %d, minDeg %d; want floor %d, minDeg 0",
					p.Name(), pv, p.Degree(pv), e.floor[pv], e.minDeg[pv], first)
			}
		}
		for _, other := range []*Prepared{pr.Patch(g, nil, nil), Prepare(g, identity)} {
			e, err := newEngine(other, p, opts.normalized())
			if err != nil {
				t.Fatal(err)
			}
			for pv := range p.N() {
				if e.floor[pv] != 0 || e.minDeg[pv] != p.Degree(pv) {
					t.Errorf("%s vertex %d without degree order: floor %d, minDeg %d; want 0, %d",
						p.Name(), pv, e.floor[pv], e.minDeg[pv], p.Degree(pv))
				}
			}
		}
	}
}
