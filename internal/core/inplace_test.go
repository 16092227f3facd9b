package core

import (
	"testing"

	"psgl/internal/bsp"
	"psgl/internal/centralized"
	"psgl/internal/gen"
	"psgl/internal/graph"
	"psgl/internal/pattern"
)

// Where a closing edge is checked: exactly on the spot when the expanding
// worker owns either endpoint, by the hub bitset AND when that proves it, and
// by the bloom — then pending, one verification hop later — only otherwise.

// TestSingleWorkerChecksEveryEdgeInPlace: one worker owns every vertex, so
// with the index on it never asks the bloom and every closing edge is exact.
func TestSingleWorkerChecksEveryEdgeInPlace(t *testing.T) {
	g := gen.ChungLu(300, 1200, 1.8, 17)
	for _, p := range []*pattern.Pattern{pattern.PG1(), pattern.PG2(), pattern.PG3(), pattern.PG4(), pattern.PG5()} {
		res, err := Run(g, p, Options{Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if want := centralized.CountInstances(p, g); res.Count != want {
			t.Errorf("%s: count %d, oracle %d", p.Name(), res.Count, want)
		}
		if st := res.Stats; st.EdgeIndexQueries != 0 || st.PrunedByIndex != 0 {
			t.Errorf("%s: one worker asked the bloom %d times (%d pruned); it owns every endpoint",
				p.Name(), st.EdgeIndexQueries, st.PrunedByIndex)
		}
	}
}

// TestInPlaceChecksCutVerificationGpsis pins pg2's Gpsi count on the
// list-compute benchmark's graph at two workers, where an expanding worker
// owns an endpoint of about three closing edges in four. Before closing edges
// were checked in place the run generated 768 631 Gpsis; the bound is half
// that, and the exact count is pinned because the run is deterministic (it
// was 291 468 before the engine ran in rank space, where the bloom hashes
// ranks).
func TestInPlaceChecksCutVerificationGpsis(t *testing.T) {
	g := gen.ChungLu(15000, 75000, 2.2, 1)
	opts := NewOptions()
	opts.Workers, opts.Seed = 2, 1
	res, err := Run(g, pattern.PG2(), opts)
	if err != nil {
		t.Fatal(err)
	}
	const before, want = 768631, 291296
	if got := res.Stats.GpsiGenerated; got > before/2 || got != want {
		t.Errorf("pg2 at K = 2 generated %d Gpsis, want %d (at most %d, half of %d)", got, want, before/2, before)
	}
	if res.Count != 569229 {
		t.Errorf("pg2 count %d, want 569229", res.Count)
	}
}

// TestPendingEdgesNeedAHop expands diamond Gpsis through three levels on a
// graph with hubs, one parent at a time, and checks every child — sent, or
// emitted as an instance with nothing pending: a pending edge has no endpoint
// the sending worker owns, and is not one the bitset AND proved (an edge from
// a vertex mapped in this expansion, when the expanding image is a hub, to a
// pre-mapped hub).
func TestPendingEdgesNeedAHop(t *testing.T) {
	var emitted [][]graph.VertexID
	e, _, inbox, err := newHotpathHarnessOpts(pattern.Diamond(), func(o *Options) {
		o.BitmapMinDegree = 16
		o.OnInstance = func(m []graph.VertexID) { emitted = append(emitted, append([]graph.VertexID(nil), m...)) }
	})
	if err != nil {
		t.Fatal(err)
	}
	hub := func(v graph.VertexID) bool { return e.bitmap.Row(v) != nil }
	cfg := bsp.Config{Workers: e.opts.Workers, Owner: e.ownerOf}
	var pending, proved int
	cur := inbox
	for step := 1; step <= 3 && len(cur) > 0; step++ {
		ctx := bsp.NewBenchContext[gpsi](cfg, 0, step)
		var next []bsp.Envelope[gpsi]
		for _, env := range cur {
			ctx.ResetSends()
			emitted = emitted[:0]
			parent := env.Msg
			vp := int(parent.Next)
			vdHub := hub(parent.Map[vp])
			e.Process(ctx, env)
			var children []gpsi
			for w := 0; w < e.opts.Workers; w++ {
				for _, child := range ctx.Sends(w) {
					children = append(children, child.Msg)
					if w == 0 {
						next = append(next, child)
					}
				}
			}
			for _, inst := range emitted {
				// OnInstance speaks caller ids; the checks below read ranks.
				child := parent
				for v, d := range inst {
					child.Map[v] = e.rankOf(d)
				}
				child.Pending = 0
				children = append(children, child)
			}
			for _, child := range children {
				for _, edge := range e.pEdges {
					a, b := edge[0], edge[1]
					isPending := child.Pending&(1<<uint(e.edgeID[a][b])) != 0
					for _, pair := range [][2]int{{a, b}, {b, a}} {
						fresh, old := pair[0], pair[1]
						if vdHub && !parent.isMapped(fresh) && parent.isMapped(old) && old != vp &&
							e.p.HasEdge(fresh, vp) && hub(child.Map[old]) {
							proved++
							if isPending {
								t.Errorf("step %d: pending edge %d-%d was proved by the hub AND", step, fresh, old)
							}
						}
					}
					if !isPending {
						continue
					}
					pending++
					if da, db := child.Map[a], child.Map[b]; e.ownerOf(da) == 0 || e.ownerOf(db) == 0 {
						t.Fatalf("step %d: pending edge %d-%d (%d-%d) has an endpoint its sender owns", step, a, b, da, db)
					}
				}
			}
		}
		cur = next
	}
	if pending == 0 || proved == 0 {
		t.Fatalf("%d pending edges, %d AND-proved edges: the checks above checked nothing", pending, proved)
	}
}
