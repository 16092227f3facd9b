package graph_test

import (
	"sort"
	"sync"
	"testing"

	"psgl/internal/gen"
	"psgl/internal/graph"
)

// orderedCases are the graphs the counting-sort order is checked on: skewed
// random graphs (many degree ties at the low end, a few hubs), a star (one
// bucket of n-1 leaves and one hub), and the degenerate sizes.
func orderedCases() map[string]*graph.Graph {
	star := graph.NewBuilder(50)
	for v := 1; v < 50; v++ {
		star.AddEdge(0, graph.VertexID(v))
	}
	return map[string]*graph.Graph{
		"chunglu-1.8":   gen.ChungLu(2000, 8000, 1.8, 3),
		"chunglu-2.5":   gen.ChungLu(3000, 9000, 2.5, 11),
		"star":          star.Build(),
		"empty":         graph.NewBuilder(0).Build(),
		"single-vertex": graph.NewBuilder(1).Build(),
		"no-edges":      graph.NewBuilder(7).Build(),
	}
}

// referenceRank is the order's definition, spelled as the comparison sort
// NewOrdered used to be: degree ascending, ties by vertex id.
func referenceRank(g *graph.Graph) []int32 {
	byRank := make([]graph.VertexID, g.NumVertices())
	for v := range byRank {
		byRank[v] = graph.VertexID(v)
	}
	sort.Slice(byRank, func(i, j int) bool {
		du, dv := g.Degree(byRank[i]), g.Degree(byRank[j])
		if du != dv {
			return du < dv
		}
		return byRank[i] < byRank[j]
	})
	rank := make([]int32, len(byRank))
	for r, v := range byRank {
		rank[v] = int32(r)
	}
	return rank
}

// referenceSplit computes nb/ns eagerly from a rank array.
func referenceSplit(g *graph.Graph, rank []int32) (nb, ns []int32) {
	nb = make([]int32, g.NumVertices())
	ns = make([]int32, g.NumVertices())
	for v := range nb {
		for _, u := range g.Neighbors(graph.VertexID(v)) {
			if rank[u] < rank[v] {
				nb[v]++
			} else {
				ns[v]++
			}
		}
	}
	return nb, ns
}

func equalInt32(a, b []int32) bool {
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

func TestOrderedCountingSortMatchesComparisonSort(t *testing.T) {
	for name, g := range orderedCases() {
		want := referenceRank(g)
		o := graph.NewOrdered(g)
		for v, r := range want {
			if got := o.Rank(graph.VertexID(v)); got != r {
				t.Fatalf("%s: rank(%d) = %d, comparison sort says %d", name, v, got, r)
			}
		}
		wantNB, wantNS := referenceSplit(g, want)
		if !equalInt32(o.NBValues(), wantNB) || !equalInt32(o.NSValues(), wantNS) {
			t.Fatalf("%s: on-request nb/ns differ from the eager values", name)
		}
		for v := range want {
			if o.NB(graph.VertexID(v)) != wantNB[v] || o.NS(graph.VertexID(v)) != wantNS[v] {
				t.Fatalf("%s: NB/NS(%d) differ from the eager values", name, v)
			}
		}
	}
}

func TestIdentityOrderedMatchesIdentityRank(t *testing.T) {
	for name, g := range orderedCases() {
		identity := make([]int32, g.NumVertices())
		for v := range identity {
			identity[v] = int32(v)
		}
		o := graph.NewIdentityOrdered(g)
		for v := range identity {
			if o.Rank(graph.VertexID(v)) != int32(v) {
				t.Fatalf("%s: identity rank(%d) = %d", name, v, o.Rank(graph.VertexID(v)))
			}
		}
		wantNB, wantNS := referenceSplit(g, identity)
		if !equalInt32(o.NBValues(), wantNB) || !equalInt32(o.NSValues(), wantNS) {
			t.Fatalf("%s: identity nb/ns differ from the eager values", name)
		}
	}
}

// TestOrderedConcurrentFirstCalls races the first NB/NS/NBValues/NSValues
// calls (and Less, which never waits for the split) on one Ordered: under
// -race this is the check that the on-request split is built once and
// published safely.
func TestOrderedConcurrentFirstCalls(t *testing.T) {
	g := gen.ChungLu(2000, 8000, 1.8, 3)
	rank := referenceRank(g)
	wantNB, wantNS := referenceSplit(g, rank)
	for _, o := range []*graph.Ordered{graph.NewOrdered(g), graph.NewOrdered(g)} {
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				v := graph.VertexID(i * 17)
				switch i % 4 {
				case 0:
					if !equalInt32(o.NBValues(), wantNB) {
						t.Error("NBValues differs under concurrent first calls")
					}
				case 1:
					if !equalInt32(o.NSValues(), wantNS) {
						t.Error("NSValues differs under concurrent first calls")
					}
				case 2:
					if o.NB(v) != wantNB[v] || o.NS(v) != wantNS[v] {
						t.Error("NB/NS differ under concurrent first calls")
					}
				case 3:
					if o.Less(v, v+1) != (rank[v] < rank[v+1]) {
						t.Error("Less differs under concurrent first calls")
					}
				}
			}(i)
		}
		wg.Wait()
	}
}
