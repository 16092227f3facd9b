package graph_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"sort"
	"sync"
	"testing"

	"psgl/internal/gen"
	"psgl/internal/graph"
)

// orderedCases are the graphs the counting-sort order is checked on: skewed
// random graphs (many degree ties at the low end, a few hubs), a star (one
// bucket of n-1 leaves and one hub), a star beside isolated vertices, and the
// degenerate sizes.
func orderedCases() map[string]*graph.Graph {
	star := graph.NewBuilder(50)
	for v := 1; v < 50; v++ {
		star.AddEdge(0, graph.VertexID(v))
	}
	isolated := graph.NewBuilder(80)
	for v := 30; v < 80; v += 3 {
		isolated.AddEdge(7, graph.VertexID(v))
		isolated.AddEdge(graph.VertexID(v), graph.VertexID(v+1))
	}
	return map[string]*graph.Graph{
		"chunglu-1.8":   gen.ChungLu(2000, 8000, 1.8, 3),
		"chunglu-2.5":   gen.ChungLu(3000, 9000, 2.5, 11),
		"star":          star.Build(),
		"star-isolated": isolated.Build(),
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

// TestByDegreeRelabel: the relabelled graph is the source renamed by degree
// rank — orig is the order, every row maps edge for edge onto the source
// vertex's row, rows ascend, and degree never decreases with the new id.
func TestByDegreeRelabel(t *testing.T) {
	for name, g := range orderedCases() {
		rg, orig := graph.ByDegree(g)
		if rg.NumVertices() != g.NumVertices() || rg.NumEdges() != g.NumEdges() || len(orig) != g.NumVertices() {
			t.Fatalf("%s: %d vertices, %d edges, %d ids; source has %d and %d",
				name, rg.NumVertices(), rg.NumEdges(), len(orig), g.NumVertices(), g.NumEdges())
		}
		rank := referenceRank(g)
		for r, v := range orig {
			if rank[v] != int32(r) {
				t.Fatalf("%s: orig[%d] = %d, which ranks %d", name, r, v, rank[v])
			}
		}
		for r := 0; r < rg.NumVertices(); r++ {
			row := rg.Neighbors(graph.VertexID(r))
			if len(row) != g.Degree(orig[r]) {
				t.Fatalf("%s: row %d has %d entries, source vertex %d has degree %d", name, r, len(row), orig[r], g.Degree(orig[r]))
			}
			if r > 0 && rg.Degree(graph.VertexID(r)) < rg.Degree(graph.VertexID(r-1)) {
				t.Fatalf("%s: degree falls from rank %d to %d", name, r-1, r)
			}
			for i, u := range row {
				if i > 0 && row[i-1] >= u {
					t.Fatalf("%s: row %d does not ascend at %d", name, r, i)
				}
				if !g.HasEdge(orig[r], orig[u]) {
					t.Fatalf("%s: edge %d-%d has no source edge %d-%d", name, r, u, orig[r], orig[u])
				}
			}
		}
	}
}

// TestByDegreeCallsNoSort: the relabel is a counting sort and an in-order
// fill. Neither ByDegree nor the rank pass it shares with NewOrdered calls
// anything beyond the CSR accessors and builtins listed here.
func TestByDegreeCallsNoSort(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "ordered.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{
		"make": true, "len": true, "int32": true, "int64": true, "VertexID": true,
		"degreeRanks": true, "Degree": true, "Neighbors": true, "MaxDegree": true, "NumVertices": true,
	}
	found := 0
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Name.Name != "ByDegree" && fn.Name.Name != "degreeRanks" {
			continue
		}
		found++
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name := ""
			switch f := call.Fun.(type) {
			case *ast.Ident:
				name = f.Name
			case *ast.SelectorExpr:
				name = f.Sel.Name
			}
			if !allowed[name] {
				t.Errorf("%s calls %s", fn.Name.Name, name)
			}
			return true
		})
	}
	if found != 2 {
		t.Fatalf("found %d of ByDegree and degreeRanks in ordered.go", found)
	}
}
