package graph_test

import (
	"math/rand"
	"testing"

	"psgl/internal/gen"
	"psgl/internal/graph"
)

// spacedChungLu is a skewed Chung–Lu graph whose vertex ids are spread out so
// that every eleventh id, the last ten included, is an isolated vertex.
func spacedChungLu(n int, m int64, seed int64) *graph.Graph {
	g := gen.ChungLu(n, m, 1.8, seed)
	spread := func(v graph.VertexID) graph.VertexID { return v + v/10 + 1 }
	b := graph.NewBuilder(int(spread(graph.VertexID(n))) + 10)
	g.Edges(func(u, v graph.VertexID) bool {
		b.AddEdge(spread(u), spread(v))
		return true
	})
	return b.Build()
}

// TestHasEdgeMatchesBruteForce checks the two exact edge tests the engine
// checks closing edges with — the CSR binary search over the shorter row and
// the bitmap index that reads a hub's bitset — against a brute-force edge set,
// over every ordered vertex pair of skewed Chung–Lu graphs that have hubs and
// isolated vertices, with the hub threshold below, at, and above the maximum
// degree. Asking both orders of every pair checks that each is symmetric.
func TestHasEdgeMatchesBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		g := spacedChungLu(600, 3000, seed)
		n := g.NumVertices()
		edges := map[[2]graph.VertexID]bool{}
		g.Edges(func(u, v graph.VertexID) bool {
			edges[[2]graph.VertexID{u, v}] = true
			edges[[2]graph.VertexID{v, u}] = true
			return true
		})
		isolated := 0
		for v := 0; v < n; v++ {
			if g.Degree(graph.VertexID(v)) == 0 {
				isolated++
			}
		}
		maxDeg := g.MaxDegree()
		if isolated == 0 || maxDeg < 64 {
			t.Fatalf("seed %d: %d isolated vertices, max degree %d: the graph does not have the shape under test", seed, isolated, maxDeg)
		}
		for _, minDeg := range []int{16, maxDeg, maxDeg + 1} {
			ix := graph.NewBitmapIndex(g, minDeg)
			if hubs := ix.IndexedVertices(); (minDeg <= maxDeg) != (hubs > 0) {
				t.Fatalf("seed %d threshold %d: %d hubs for max degree %d", seed, minDeg, hubs, maxDeg)
			}
			for u := 0; u < n; u++ {
				for v := 0; v < n; v++ {
					a, b := graph.VertexID(u), graph.VertexID(v)
					want := edges[[2]graph.VertexID{a, b}]
					if got := g.HasEdge(a, b); got != want {
						t.Fatalf("seed %d: Graph.HasEdge(%d, %d) = %v, want %v", seed, a, b, got, want)
					}
					if got := ix.HasEdge(a, b); got != want {
						t.Fatalf("seed %d threshold %d: BitmapIndex.HasEdge(%d, %d) = %v, want %v", seed, minDeg, a, b, got, want)
					}
				}
			}
		}
	}
}

// TestHasEdgeAllocatesNothing: the exact tests sit on the expansion hot path,
// whose steady state is pinned at zero allocations.
func TestHasEdgeAllocatesNothing(t *testing.T) {
	g := spacedChungLu(600, 3000, 1)
	ix := graph.NewBitmapIndex(g, 16)
	n := g.NumVertices()
	hits := 0
	avg := testing.AllocsPerRun(20, func() {
		for u := 0; u < n; u += 7 {
			for v := 0; v < n; v += 5 {
				if g.HasEdge(graph.VertexID(u), graph.VertexID(v)) {
					hits++
				}
				if ix.HasEdge(graph.VertexID(u), graph.VertexID(v)) {
					hits++
				}
			}
		}
	})
	if avg != 0 {
		t.Errorf("HasEdge allocates %.1f per batch, want 0", avg)
	}
	if hits == 0 {
		t.Fatal("no pair was an edge: the batch exercised nothing")
	}
}

// TestSeekRowMatchesLinearScan walks random sorted rows — empty, short, and
// long enough to gallop — with ascending probe runs that mix unit steps and
// long skips, each call on the suffix the previous one returned, and checks
// every answer against a linear scan of the whole row.
func TestSeekRowMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(300)
		if trial%10 == 0 {
			n = 0
		}
		row := make([]graph.VertexID, 0, n)
		for v := graph.VertexID(rng.Intn(4)); len(row) < n; v += graph.VertexID(1 + rng.Intn(6)) {
			row = append(row, v)
		}
		rest := row
		for v := graph.VertexID(-1); v < graph.VertexID(6*n+10); {
			rest = graph.SeekRow(rest, v)
			i := 0
			for i < len(row) && row[i] < v {
				i++
			}
			if len(rest) != len(row)-i {
				t.Fatalf("row %v: SeekRow(%d) left %d entries, want %d", row, v, len(rest), len(row)-i)
			}
			if rng.Intn(4) == 0 {
				v += graph.VertexID(rng.Intn(200))
			} else {
				v += graph.VertexID(rng.Intn(3))
			}
		}
	}
}
