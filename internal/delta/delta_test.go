package delta

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"psgl/internal/centralized"
	"psgl/internal/core"
	"psgl/internal/gen"
	"psgl/internal/graph"
	"psgl/internal/pattern"
)

func embeddingKey(m []graph.VertexID) string {
	s := ""
	for i, v := range m {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprint(v)
	}
	return s
}

// fullEmbeddings enumerates g completely under the identity order — the
// reference the maintained standing set must stay byte-identical to.
func fullEmbeddings(t *testing.T, g *graph.Graph, p *pattern.Pattern) []string {
	t.Helper()
	res, err := core.Run(g, p, core.Options{Workers: 3, Seed: 1, Collect: true, IdentityOrder: true})
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

// randomBatch draws a mixed batch of adds (edges absent from g) and removes
// (edges present in g) and returns the mutated graph alongside the raw
// lists, which deliberately include noops and duplicates.
func randomBatch(g *graph.Graph, rng *rand.Rand, nAdd, nRemove int) (*graph.Graph, [][2]graph.VertexID, [][2]graph.VertexID) {
	ov := graph.NewOverlay(g)
	n := g.NumVertices()
	var adds, removes [][2]graph.VertexID
	for len(adds) < nAdd {
		u := graph.VertexID(rng.Intn(n))
		v := graph.VertexID(rng.Intn(n))
		if u == v {
			continue
		}
		adds = append(adds, [2]graph.VertexID{u, v})
	}
	// Sample removes from the present edges via reservoir over Edges.
	var present [][2]graph.VertexID
	g.Edges(func(u, v graph.VertexID) bool {
		present = append(present, [2]graph.VertexID{u, v})
		return true
	})
	for i := 0; i < nRemove && len(present) > 0; i++ {
		removes = append(removes, present[rng.Intn(len(present))])
	}
	// Noise: duplicate entries and noop adds of present edges.
	if len(present) > 0 {
		adds = append(adds, present[rng.Intn(len(present))])
	}
	if len(removes) > 0 {
		removes = append(removes, removes[0])
	}
	if _, err := ov.ApplyBatch(graph.Batch{Add: adds, Remove: removes}); err != nil {
		panic(err)
	}
	return ov.Snapshot(), adds, removes
}

// applyDelta patches the standing multiset: add every gained embedding,
// drop every lost one (which must be present).
func applyDelta(t *testing.T, standing []string, res *Result) []string {
	t.Helper()
	set := make(map[string]int, len(standing))
	for _, k := range standing {
		set[k]++
	}
	for _, m := range res.LostEmbeddings {
		k := embeddingKey(m)
		if set[k] == 0 {
			t.Fatalf("lost embedding %s was not in the standing set", k)
		}
		set[k]--
	}
	for _, m := range res.GainedEmbeddings {
		set[embeddingKey(m)]++
	}
	var out []string
	for k, c := range set {
		if c > 1 {
			t.Fatalf("embedding %s has multiplicity %d after patch", k, c)
		}
		if c == 1 {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// TestDeltaDifferentialOracle is the core correctness battery: random
// graphs × catalog patterns × random mixed batches, checking both the count
// identity count(G) + gained − lost == count(G′) against the centralized
// oracle and the byte-identity of the patched standing embedding set
// against a fresh full run on G′.
func TestDeltaDifferentialOracle(t *testing.T) {
	patterns := []*pattern.Pattern{
		pattern.PG1(), pattern.PG2(), pattern.PG3(), pattern.PG5(),
	}
	for _, seed := range []int64{3, 11} {
		g0 := gen.ChungLu(250, 900, 1.8, seed)
		rng := rand.New(rand.NewSource(seed * 7))
		g1, adds, removes := randomBatch(g0, rng, 10, 10)
		for _, p := range patterns {
			res, err := Enumerate(context.Background(), g0, g1, adds, removes, p,
				Options{Workers: 3, Seed: 1, Collect: true})
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, p.Name(), err)
			}
			before := centralized.CountInstances(p, g0)
			after := centralized.CountInstances(p, g1)
			if before+res.Gained-res.Lost != after {
				t.Fatalf("seed %d %s: %d + %d - %d != %d",
					seed, p.Name(), before, res.Gained, res.Lost, after)
			}
			standing := fullEmbeddings(t, g0, p)
			patched := applyDelta(t, standing, res)
			fresh := fullEmbeddings(t, g1, p)
			if len(patched) != len(fresh) {
				t.Fatalf("seed %d %s: patched standing set has %d embeddings, fresh run %d",
					seed, p.Name(), len(patched), len(fresh))
			}
			for i := range patched {
				if patched[i] != fresh[i] {
					t.Fatalf("seed %d %s: patched[%d] = %s, fresh = %s",
						seed, p.Name(), i, patched[i], fresh[i])
				}
			}
			if res.Runs != len(res.AddedEdges)+len(res.RemovedEdges) {
				t.Fatalf("runs = %d for %d+%d effective changes",
					res.Runs, len(res.AddedEdges), len(res.RemovedEdges))
			}
		}
	}
}

// TestDeltaChainedOverlayEpochs chains the maintenance identity
// count(before) + gained − lost == count(after) over eight epochs of one
// overlay, each a mixed batch of two random adds and two removes of present
// edges, for pg3 on a 4000-vertex power-law graph. Each epoch's delta runs
// from the previous epoch's snapshot and is checked against a full run, so
// an error in any one batch carries into every later count; the last count
// is checked against the centralized oracle.
func TestDeltaChainedOverlayEpochs(t *testing.T) {
	g := gen.ChungLu(4000, 16000, 1.8, 47)
	p := pattern.PG3()
	rng := rand.New(rand.NewSource(47))
	ov := graph.NewOverlay(g)
	base, err := core.Run(g, p, core.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	count := base.Count
	var effective, moved int64
	for epoch := 0; epoch < 8; epoch++ {
		var b graph.Batch
		for len(b.Add) < 2 {
			u, v := graph.VertexID(rng.Intn(g.NumVertices())), graph.VertexID(rng.Intn(g.NumVertices()))
			if u != v {
				b.Add = append(b.Add, [2]graph.VertexID{u, v})
			}
		}
		for len(b.Remove) < 2 {
			u := graph.VertexID(rng.Intn(g.NumVertices()))
			if nbrs := g.Neighbors(u); len(nbrs) > 0 {
				b.Remove = append(b.Remove, [2]graph.VertexID{u, nbrs[rng.Intn(len(nbrs))]})
			}
		}
		res, err := ov.ApplyBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		next := ov.Snapshot()
		d, err := Enumerate(context.Background(), g, next, res.Added, res.Removed, p, Options{Workers: 4})
		if err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		full, err := core.Run(next, p, core.Options{Workers: 4})
		if err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		if count+d.Gained-d.Lost != full.Count {
			t.Fatalf("epoch %d: %d + %d - %d != %d", epoch, count, d.Gained, d.Lost, full.Count)
		}
		count, g = full.Count, next
		effective += int64(len(res.Added) + len(res.Removed))
		moved += d.Gained + d.Lost
	}
	if effective == 0 || moved == 0 {
		t.Fatalf("degenerate stream: %d effective edges, %d embeddings gained or lost", effective, moved)
	}
	if want := centralized.CountInstances(p, g); count != want {
		t.Fatalf("maintained count %d after 8 epochs, oracle %d", count, want)
	}
}

// TestDeltaEdgeCases: empty batches, pure-noop batches, cancelling entries,
// and validation failures.
func TestDeltaEdgeCases(t *testing.T) {
	g := graph.FromEdges(5, [][2]graph.VertexID{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}})
	p := pattern.Triangle()
	ctx := context.Background()

	res, err := Enumerate(ctx, g, g, nil, nil, p, Options{Workers: 2})
	if err != nil || res.Gained != 0 || res.Lost != 0 || res.Runs != 0 {
		t.Fatalf("empty batch: %+v, %v", res, err)
	}
	// Noop entries: adding a present edge / removing an absent one anchor
	// nothing.
	res, err = Enumerate(ctx, g, g,
		[][2]graph.VertexID{{0, 1}}, [][2]graph.VertexID{{0, 3}}, p, Options{Workers: 2})
	if err != nil || res.Runs != 0 {
		t.Fatalf("noop batch ran %d anchors, err %v", res.Runs, err)
	}
	// A real change: completing the second triangle {2,3,4}.
	ov := graph.NewOverlay(g)
	if _, err := ov.ApplyBatch(graph.Batch{Add: [][2]graph.VertexID{{2, 4}}}); err != nil {
		t.Fatal(err)
	}
	res, err = Enumerate(ctx, g, ov.Snapshot(), [][2]graph.VertexID{{2, 4}}, nil, p,
		Options{Workers: 2, Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Gained != 1 || res.Lost != 0 {
		t.Fatalf("gained %d lost %d, want 1/0", res.Gained, res.Lost)
	}
	// Validation: out-of-range and self-loop entries fail fast.
	if _, err := Enumerate(ctx, g, g, [][2]graph.VertexID{{0, 9}}, nil, p, Options{}); err == nil {
		t.Fatal("want out-of-range error")
	}
	if _, err := Enumerate(ctx, g, g, nil, [][2]graph.VertexID{{3, 3}}, p, Options{}); err == nil {
		t.Fatal("want self-loop error")
	}
	if _, err := Enumerate(ctx, g, nil, nil, nil, p, Options{}); err == nil {
		t.Fatal("want nil-graph error")
	}
	g6 := graph.FromEdges(6, [][2]graph.VertexID{{0, 1}})
	if _, err := Enumerate(ctx, g, g6, nil, nil, p, Options{}); err == nil {
		t.Fatal("want vertex-count error")
	}
}

func sortedKeys(ms [][]graph.VertexID) []string {
	out := make([]string, 0, len(ms))
	for _, m := range ms {
		out = append(out, embeddingKey(m))
	}
	sort.Strings(out)
	return out
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
