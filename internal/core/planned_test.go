package core

import (
	"fmt"
	"sync/atomic"
	"testing"

	"psgl/internal/centralized"
	"psgl/internal/gen"
	"psgl/internal/graph"
	"psgl/internal/pattern"
	"psgl/internal/stats"
)

// TestPlannedPatternMatchesUnplanned: running with a pre-broken pattern and
// pre-selected initial vertex (the plan-cache path) must be bit-identical to
// the per-run planning path, in the product and under every strategy of the
// partitioned model.
func TestPlannedPatternMatchesUnplanned(t *testing.T) {
	g := gen.ChungLu(2000, 8000, 1.8, 7)
	dist := stats.FromHistogram(g.DegreeHistogram())
	for _, p := range []*pattern.Pattern{pattern.PG1(), pattern.PG3()} {
		broken := p.BreakAutomorphisms()
		initial := SelectInitialVertex(broken, dist)
		for _, m := range runModels {
			s := m.name
			opts := NewOptions()
			opts.Seed = 42
			want, err := m.run(g, p, opts)
			if err != nil {
				t.Fatalf("%s/%s unplanned: %v", p.Name(), s, err)
			}
			planned := opts
			planned.PlannedPattern = true
			planned.InitialVertex = initial
			got, err := m.run(g, broken, planned)
			if err != nil {
				t.Fatalf("%s/%s planned: %v", p.Name(), s, err)
			}
			if got.Count != want.Count {
				t.Fatalf("%s/%s: planned count %d != unplanned %d", p.Name(), s, got.Count, want.Count)
			}
			if got.Stats.GpsiGenerated != want.Stats.GpsiGenerated {
				t.Fatalf("%s/%s: planned generated %d != unplanned %d",
					p.Name(), s, got.Stats.GpsiGenerated, want.Stats.GpsiGenerated)
			}
		}
	}
}

// TestMaxResultsEarlyTermination: a capped run stops early, reports success
// with Truncated set, and still delivers at least the cap, for paths, stars,
// triangles, 4-cycles and diamonds at one to three workers under both
// policies. Pipelined at two and three workers, the diamond's cap is met
// inside a slot combine intersects.
// Pipelined, a worker takes its own newest work first, so the cap is met a
// few chunks deep instead of after a breadth-first level, and it seeds from a
// cursor only when it has no deeper work, so the seeds a capped run never
// reaches are never built: the run processes and generates at most a tenth
// of the uncapped run's Gpsis.
func TestMaxResultsEarlyTermination(t *testing.T) {
	g := gen.ChungLu(2000, 8000, 1.8, 7)
	const limit = 5
	for _, p := range []*pattern.Pattern{pattern.Path(3), pattern.Star(3), pattern.Triangle(), pattern.Cycle(4), pattern.Diamond()} {
		for k := 1; k <= 3; k++ {
			opts := NewOptions()
			opts.Seed = 3
			opts.Workers = k
			full, err := Run(g, p, opts)
			if err != nil {
				t.Fatal(err)
			}
			if full.Count < 50 {
				t.Fatalf("%s: test graph too sparse: only %d instances", p.Name(), full.Count)
			}
			for _, async := range []bool{false, true} {
				name := fmt.Sprintf("%s/K=%d/async=%v", p.Name(), k, async)
				var streamed atomic.Int64
				capped := opts
				capped.MaxResults = limit
				capped.AsyncExchange = async
				capped.OnInstance = func([]int32) { streamed.Add(1) }
				res, err := Run(g, p, capped)
				if err != nil {
					t.Fatalf("%s: capped run failed: %v", name, err)
				}
				if !res.Truncated {
					t.Fatalf("%s: capped run not marked Truncated", name)
				}
				if res.Count < limit {
					t.Fatalf("%s: capped run found %d < %d instances", name, res.Count, limit)
				}
				if res.Count >= full.Count {
					t.Fatalf("%s: capped run did not stop early: %d of %d instances", name, res.Count, full.Count)
				}
				if streamed.Load() != res.Count {
					t.Fatalf("%s: OnInstance saw %d instances, Count says %d", name, streamed.Load(), res.Count)
				}
				// The capped run's per-worker messages show how the workers
				// shared the run before the cap landed: a worker that
				// processed nothing did not get a core in time.
				if async && res.Stats.GpsiProcessed*10 > full.Stats.GpsiProcessed {
					t.Fatalf("%s: capped run processed %d Gpsis, more than a tenth of the uncapped run's %d (capped WorkerMessages %v)",
						name, res.Stats.GpsiProcessed, full.Stats.GpsiProcessed, res.Stats.WorkerMessages)
				}
				if async && res.Stats.GpsiGenerated*10 > full.Stats.GpsiGenerated {
					t.Fatalf("%s: capped run generated %d Gpsis, more than a tenth of the uncapped run's %d (processed %d of the uncapped run's %d; capped WorkerMessages %v)",
						name, res.Stats.GpsiGenerated, full.Stats.GpsiGenerated,
						res.Stats.GpsiProcessed, full.Stats.GpsiProcessed, res.Stats.WorkerMessages)
				}
			}
		}
	}
}

// TestMaxResultsAboveTotal: a cap the run never reaches changes nothing.
func TestMaxResultsAboveTotal(t *testing.T) {
	g := gen.ChungLu(500, 2000, 1.8, 7)
	opts := NewOptions()
	want, err := Run(g, pattern.PG1(), opts)
	if err != nil {
		t.Fatal(err)
	}
	capped := opts
	capped.MaxResults = want.Count + 1
	res, err := Run(g, pattern.PG1(), capped)
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Fatal("unreached cap marked the run Truncated")
	}
	if res.Count != want.Count {
		t.Fatalf("count %d != uncapped %d", res.Count, want.Count)
	}
}

// TestMaxResultsStopsInsideCrossProduct: the early stop is honoured between
// combinations, not only between messages. On a star (plus a clique, so the
// hub is not the whole graph) one Gpsi — path(3) centred on the hub — carries
// deg² combinations; a cap of 1 must end the run within a few results per
// worker, and an uncapped run must count what the oracle counts.
func TestMaxResultsStopsInsideCrossProduct(t *testing.T) {
	const leaves, clique = 300, 5
	b := graph.NewBuilder(1 + leaves + clique)
	for v := 1; v <= leaves; v++ {
		b.AddEdge(0, graph.VertexID(v))
	}
	for u := 1 + leaves; u < 1+leaves+clique; u++ {
		b.AddEdge(0, graph.VertexID(u))
		for v := u + 1; v < 1+leaves+clique; v++ {
			b.AddEdge(graph.VertexID(u), graph.VertexID(v))
		}
	}
	g := b.Build()
	opts := NewOptions()
	opts.Workers = 4
	opts.InitialVertex = 1 // the path's centre: the hub expands both ends at once
	full, err := Run(g, pattern.Path(3), opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := centralized.CountInstances(pattern.Path(3), g); full.Count != want {
		t.Fatalf("uncapped count %d, oracle %d", full.Count, want)
	}
	hub := int64(leaves + clique)
	if full.Count < hub*(hub-1)/2 {
		t.Fatalf("test graph lost its hub: only %d paths", full.Count)
	}

	for _, async := range []bool{false, true} {
		capped := opts
		capped.MaxResults = 1
		capped.AsyncExchange = async
		var streamed atomic.Int64
		capped.OnInstance = func([]int32) { streamed.Add(1) }
		res, err := Run(g, pattern.Path(3), capped)
		if err != nil {
			t.Fatalf("async=%v: capped run failed: %v", async, err)
		}
		if !res.Truncated || res.Count < 1 {
			t.Fatalf("async=%v: truncated=%v count=%d, want a truncated run with a result", async, res.Truncated, res.Count)
		}
		// Each worker may finish the combination it was in when the cap hit.
		if limit := int64(4 * opts.Workers); res.Count > limit || streamed.Load() > limit {
			t.Fatalf("async=%v: cap of 1 delivered %d results (%d streamed), want <= %d — the stop waited for the hub's cross product",
				async, res.Count, streamed.Load(), limit)
		}
	}
}
