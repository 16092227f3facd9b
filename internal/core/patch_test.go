package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"psgl/internal/centralized"
	"psgl/internal/gen"
	"psgl/internal/graph"
	"psgl/internal/pattern"
)

// vertexSets renders embeddings as the sorted multiset of their sorted vertex
// sets: what two runs that break symmetry by different vertex orders agree on.
func vertexSets(embs [][]graph.VertexID) []string {
	sets := make([][]graph.VertexID, len(embs))
	for i, m := range embs {
		sets[i] = slices.Clone(m)
		slices.Sort(sets[i])
	}
	return sortedKeys(sets)
}

// walkBatch draws one batch of a random update walk over g's vertices: fresh
// edges, two of them at the top hub, removals of base edges, and — from the
// second batch on — a base edge removed earlier re-added and an edge added
// earlier removed again. cur is the graph before the batch.
func walkBatch(rng *rand.Rand, g, cur *graph.Graph, removedBase, addedEarlier [][2]graph.VertexID) graph.Batch {
	n := g.NumVertices()
	hub := graph.VertexID(0)
	for v := 1; v < n; v++ {
		if g.Degree(graph.VertexID(v)) > g.Degree(hub) {
			hub = graph.VertexID(v)
		}
	}
	var b graph.Batch
	for i := 0; i < 6; i++ {
		u, v := graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n))
		if i < 2 {
			u = hub
		}
		if u != v && !cur.HasEdge(u, v) {
			b.Add = append(b.Add, [2]graph.VertexID{v, u})
		}
	}
	for i := 0; i < 4; i++ {
		u := graph.VertexID(rng.Intn(n))
		if nb := g.Neighbors(u); len(nb) > 0 {
			if v := nb[rng.Intn(len(nb))]; cur.HasEdge(u, v) {
				b.Remove = append(b.Remove, [2]graph.VertexID{u, v})
			}
		}
	}
	for _, e := range removedBase {
		if !cur.HasEdge(e[0], e[1]) {
			b.Add = append(b.Add, e)
			break
		}
	}
	for _, e := range addedEarlier {
		if cur.HasEdge(e[0], e[1]) {
			b.Remove = append(b.Remove, e)
			break
		}
	}
	return b
}

// TestPatchedPreparedMatchesFresh walks random update sequences over Chung–Lu
// graphs with hubs (a lowered hub threshold, so hub rows appear, grow and
// shrink) and, at every epoch, runs a state patched from the walk's base
// beside a fresh Prepare of the same graph: PG1–PG5 × K ∈ {1, 2, 3} ×
// strict/async. Counts must equal the fresh run's and the centralized
// oracle's, and the collected embeddings must equal both as vertex sets —
// the patched state keeps the base's vertex order, so its tuples follow
// another order than a fresh run's. The base state must come out unchanged.
func TestPatchedPreparedMatchesFresh(t *testing.T) {
	patterns := []*pattern.Pattern{pattern.PG1(), pattern.PG2(), pattern.PG3(), pattern.PG4(), pattern.PG5()}
	epochs := 4
	if testing.Short() {
		epochs = 2
	}
	for _, seed := range []int64{1, 2} {
		g := gen.ChungLu(80, 320, 2.0, seed)
		opts := Options{Workers: 3, Seed: seed, bitmapMinDegree: 8}
		base := Prepare(g, opts)
		before := hashPrepared(base)
		ov := graph.NewOverlay(g)
		rng := rand.New(rand.NewSource(seed))
		var removedBase, addedEarlier [][2]graph.VertexID
		for epoch := 1; epoch <= epochs; epoch++ {
			res, err := ov.ApplyBatch(walkBatch(rng, g, ov.Snapshot(), removedBase, addedEarlier))
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range res.Removed {
				if g.HasEdge(e[0], e[1]) {
					removedBase = append(removedBase, e)
				}
			}
			for _, e := range res.Added {
				if !g.HasEdge(e[0], e[1]) {
					addedEarlier = append(addedEarlier, e)
				}
			}
			cur := ov.Snapshot()
			added, removed := ov.Patch()
			patched := base.Patch(cur, added, removed)
			fresh := Prepare(cur, opts)
			if !slices.Equal(patched.orig, base.orig) || &patched.owner[0] != &base.owner[0] {
				t.Fatalf("seed %d epoch %d: the patched state left the base's order or owner array", seed, epoch)
			}
			for _, p := range patterns {
				var all [][]graph.VertexID
				centralized.ListInstances(p.BreakAutomorphisms(), cur, func(m []graph.VertexID) bool {
					all = append(all, slices.Clone(m))
					return true
				})
				want := vertexSets(all)
				for k := 1; k <= 3; k++ {
					for _, async := range []bool{false, true} {
						name := fmt.Sprintf("seed %d epoch %d %s/K=%d/async=%v", seed, epoch, p.Name(), k, async)
						o := opts
						o.Workers, o.AsyncExchange, o.Collect = k, async, true
						got, err := patched.ForWorkers(k).RunContext(context.Background(), p, o)
						if err != nil {
							t.Fatalf("%s: patched: %v", name, err)
						}
						ref, err := fresh.ForWorkers(k).RunContext(context.Background(), p, o)
						if err != nil {
							t.Fatalf("%s: fresh: %v", name, err)
						}
						if got.Count != int64(len(all)) || ref.Count != got.Count {
							t.Fatalf("%s: patched count %d, fresh %d, oracle %d", name, got.Count, ref.Count, len(all))
						}
						if !slices.Equal(vertexSets(got.Instances), want) || !slices.Equal(vertexSets(ref.Instances), want) {
							t.Fatalf("%s: collected vertex sets differ from the oracle's", name)
						}
					}
				}
			}
		}
		if hashPrepared(base) != before {
			t.Fatalf("seed %d: patching changed the base state", seed)
		}
		if len(removedBase) == 0 || len(addedEarlier) == 0 {
			t.Fatalf("seed %d: the walk removed %d base edges and added %d", seed, len(removedBase), len(addedEarlier))
		}
	}
}
