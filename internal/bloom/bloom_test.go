package bloom

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"psgl/internal/gen"
	"psgl/internal/graph"
)

func TestNoFalseNegatives(t *testing.T) {
	f := New(1000, 10)
	rng := rand.New(rand.NewSource(1))
	type edge struct{ u, v graph.VertexID }
	edges := make([]edge, 1000)
	for i := range edges {
		edges[i] = edge{graph.VertexID(rng.Intn(5000)), graph.VertexID(rng.Intn(5000))}
		f.AddEdge(edges[i].u, edges[i].v)
	}
	for _, e := range edges {
		if !f.MayHaveEdge(e.u, e.v) {
			t.Fatalf("false negative for edge (%d,%d)", e.u, e.v)
		}
		if !f.MayHaveEdge(e.v, e.u) {
			t.Fatalf("order-dependence: (%d,%d) present but (%d,%d) absent", e.u, e.v, e.v, e.u)
		}
	}
}

func TestFalsePositiveRateNearAnalytic(t *testing.T) {
	const n = 20000
	f := New(n, 10)
	rng := rand.New(rand.NewSource(2))
	present := make(map[uint64]bool, n)
	for len(present) < n {
		u, v := graph.VertexID(rng.Intn(100000)), graph.VertexID(rng.Intn(100000))
		if u == v {
			continue
		}
		key := edgeKey(u, v)
		if present[key] {
			continue
		}
		present[key] = true
		f.AddEdge(u, v)
	}
	trials, fps := 0, 0
	for trials < 100000 {
		u, v := graph.VertexID(rng.Intn(100000)), graph.VertexID(rng.Intn(100000))
		if u == v || present[edgeKey(u, v)] {
			continue
		}
		trials++
		if f.MayHaveEdge(u, v) {
			fps++
		}
	}
	got := float64(fps) / float64(trials)
	want := f.EstimatedFalsePositiveRate()
	if got > 3*want+0.005 {
		t.Fatalf("measured FP rate %.4f far above analytic %.4f", got, want)
	}
	if got > 0.05 {
		t.Fatalf("FP rate %.4f too high for 10 bits/entry", got)
	}
}

func TestBitsPerEntryTradeoff(t *testing.T) {
	// More bits per entry must not raise the false-positive estimate.
	load := func(bpe int) float64 {
		f := New(10000, bpe)
		for i := 0; i < 10000; i++ {
			f.AddEdge(graph.VertexID(i), graph.VertexID(i+77777))
		}
		return f.EstimatedFalsePositiveRate()
	}
	if load(4) <= load(16) {
		t.Fatal("FP estimate should shrink with more bits per entry")
	}
}

func TestDefaultsAndTinySizes(t *testing.T) {
	f := New(0, 0) // both clamped
	f.AddEdge(1, 2)
	if !f.MayHaveEdge(2, 1) {
		t.Fatal("tiny filter lost its only edge")
	}
	if f.SizeBytes() < 8 {
		t.Fatal("filter has no storage")
	}
	if f.Entries() != 1 {
		t.Fatalf("Entries = %d, want 1", f.Entries())
	}
	if New(100, 10).EstimatedFalsePositiveRate() != 0 {
		t.Fatal("empty filter should estimate 0 FP rate")
	}
}

func TestEdgeIndexCoversGraph(t *testing.T) {
	g := gen.ErdosRenyi(2000, 10000, 3)
	ix := BuildEdgeIndex(g, 10)
	missing := 0
	g.Edges(func(u, v graph.VertexID) bool {
		if !ix.MayHaveEdge(u, v) {
			missing++
		}
		return true
	})
	if missing > 0 {
		t.Fatalf("%d real edges answered negative", missing)
	}
	if ix.SizeBytes() <= 0 || ix.FalsePositiveRate() <= 0 {
		t.Fatal("index stats not populated")
	}
}

// TestPatchedIndexCoversTheNewGraph: an index patched with added edges
// answers true for every edge of the new graph — the source's and the added
// ones, in either orientation — while the source index keeps its bits and
// entry count: a state patched from it shares nothing it writes.
func TestPatchedIndexCoversTheNewGraph(t *testing.T) {
	g := gen.ErdosRenyi(2000, 10000, 6)
	ix := BuildEdgeIndex(g, 10)
	bits, entries := slices.Clone(ix.filter.bits), ix.filter.entries
	rng := rand.New(rand.NewSource(7))
	var added [][2]graph.VertexID
	for len(added) < 500 {
		u, v := graph.VertexID(rng.Intn(2000)), graph.VertexID(rng.Intn(2000))
		if u != v && !g.HasEdge(u, v) {
			added = append(added, [2]graph.VertexID{u, v})
		}
	}
	p := ix.Patched(added)
	for _, e := range added {
		if !p.MayHaveEdge(e[1], e[0]) {
			t.Fatalf("added edge (%d,%d) answered negative", e[0], e[1])
		}
	}
	g.Edges(func(u, v graph.VertexID) bool {
		if !p.MayHaveEdge(u, v) {
			t.Fatalf("source edge (%d,%d) answered negative after the patch", u, v)
		}
		return true
	})
	if !slices.Equal(ix.filter.bits, bits) || ix.filter.entries != entries {
		t.Fatal("patching changed the source index")
	}
	if p.filter.entries != entries+int64(len(added)) || p.SizeBytes() != ix.SizeBytes() {
		t.Fatalf("patched index: %d entries in %d bytes, source %d in %d",
			p.filter.entries, p.SizeBytes(), entries, ix.SizeBytes())
	}
}

func TestEdgeIndexPrunesNonEdges(t *testing.T) {
	g := gen.ErdosRenyi(2000, 10000, 4)
	ix := BuildEdgeIndex(g, 12)
	rng := rand.New(rand.NewSource(5))
	pruned, trials := 0, 0
	for trials < 20000 {
		u := graph.VertexID(rng.Intn(2000))
		v := graph.VertexID(rng.Intn(2000))
		if u == v || g.HasEdge(u, v) {
			continue
		}
		trials++
		if !ix.MayHaveEdge(u, v) {
			pruned++
		}
	}
	if float64(pruned)/float64(trials) < 0.95 {
		t.Fatalf("index pruned only %d/%d non-edges", pruned, trials)
	}
}

func TestEdgeKeySymmetric(t *testing.T) {
	if err := quick.Check(func(u, v int32) bool {
		if u < 0 {
			u = -u
		}
		if v < 0 {
			v = -v
		}
		return edgeKey(u, v) == edgeKey(v, u)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMayHaveEdge(b *testing.B) {
	g := gen.ErdosRenyi(10000, 100000, 1)
	ix := BuildEdgeIndex(g, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.MayHaveEdge(graph.VertexID(i%10000), graph.VertexID((i*31)%10000))
	}
}

func BenchmarkBuildEdgeIndex(b *testing.B) {
	g := gen.ErdosRenyi(10000, 100000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildEdgeIndex(g, 10)
	}
}
