package graph_test

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

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

// rowPair is two ascending rows for TestMeetMatchesNaiveIntersection, in one
// of four shapes: drawn from one range, disjoint (interleaved), one wholly
// below the other, or one inside the other; either may be empty, and in a
// third of the pairs one is 1000x the other's length.
type rowPair struct{ a, b []graph.VertexID }

func (rowPair) Generate(r *rand.Rand, _ int) reflect.Value {
	la, lb := r.Intn(24), r.Intn(24)
	if r.Intn(3) == 0 {
		lb = la*1000 + r.Intn(1000)
	}
	// sample draws about n ascending ids from [lo, lo+span), stride apart.
	sample := func(n, lo, span, stride int) []graph.VertexID {
		row := []graph.VertexID{}
		for v := lo; v < lo+span && n > 0; v += stride {
			if r.Intn(span/stride+1) < n {
				row = append(row, graph.VertexID(v))
			}
		}
		return row
	}
	span := 4*max(la, lb) + 8
	var p rowPair
	switch r.Intn(4) {
	case 0:
		p.a, p.b = sample(la, 0, span, 1), sample(lb, 0, span, 1)
	case 1:
		p.a, p.b = sample(la, 0, 2*span, 2), sample(lb, 1, 2*span, 2)
	case 2:
		p.a, p.b = sample(la, 0, span, 1), sample(lb, span, span, 1)
	default:
		p.b = sample(lb, 0, span, 1)
		for _, v := range p.b {
			if r.Intn(max(len(p.b), 1)) < la {
				p.a = append(p.a, v)
			}
		}
	}
	if r.Intn(2) == 0 {
		p.a, p.b = p.b, p.a
	}
	return reflect.ValueOf(p)
}

// TestMeetMatchesNaiveIntersection walks a ∩ b with Meet, each call on the
// suffixes past the previous match, and checks the walk against a nested-loop
// intersection: the same entries in the same order, with both suffixes
// starting at each.
func TestMeetMatchesNaiveIntersection(t *testing.T) {
	walk := func(p rowPair) bool {
		var want []graph.VertexID
		for _, x := range p.a {
			for _, y := range p.b {
				if x == y {
					want = append(want, x)
				}
			}
		}
		var got []graph.VertexID
		a, b := p.a, p.b
		for {
			if a, b = graph.Meet(a, b); len(a) == 0 {
				break
			}
			if len(b) == 0 || a[0] != b[0] {
				return false
			}
			got = append(got, a[0])
			a, b = a[1:], b[1:]
		}
		return slices.Equal(got, want)
	}
	if err := quick.Check(walk, &quick.Config{MaxCount: 1000, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}
