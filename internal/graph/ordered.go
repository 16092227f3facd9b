package graph

import "sync"

// Ordered wraps a graph with the partial order of Section 3: vertices are
// ranked first by degree, ties broken by vertex id. For a vertex v, nb(v)
// counts neighbors ranked below v and ns(v) counts neighbors ranked above.
// Property 1 of the paper: the nb distribution is more skewed than the raw
// degree distribution while ns is more balanced — the lever behind the
// deterministic initial-pattern-vertex rule for cycles and cliques.
//
// The PSgL engine does not read Less: it runs on ByDegree's relabelled graph,
// where the order is the order of the ids. Ordered serves the oracles, the
// baselines and the distribution analysis.
//
// An Ordered is immutable once built and safe for concurrent use: the nb/ns
// split is computed on first request (once, whichever goroutine asks first)
// instead of on every build.
type Ordered struct {
	G *Graph
	// rank[v] is the position of v in the degree order; a permutation of
	// [0, NumVertices). nil means the identity order: rank(v) = v.
	rank []int32

	split  sync.Once
	nb, ns []int32
}

// NewOrdered computes the degree ordering of g.
func NewOrdered(g *Graph) *Ordered {
	return &Ordered{G: g, rank: degreeRanks(g)}
}

// degreeRanks is the degree order by a counting sort on degree: vertices are
// visited in ascending id and handed the next free position of their degree's
// bucket, which is exactly the (degree, id) lexicographic permutation a
// comparison sort yields, in O(|V| + maxDegree).
func degreeRanks(g *Graph) []int32 {
	n := g.NumVertices()
	// next[d] becomes the first rank of degree d: a histogram shifted by one
	// slot, prefix-summed in place.
	next := make([]int32, g.MaxDegree()+2)
	for v := 0; v < n; v++ {
		next[g.Degree(VertexID(v))+1]++
	}
	for d := 1; d < len(next); d++ {
		next[d] += next[d-1]
	}
	rank := make([]int32, n)
	for v := 0; v < n; v++ {
		d := g.Degree(VertexID(v))
		rank[v] = next[d]
		next[d]++
	}
	return rank
}

// ByDegree returns g relabelled by the degree order — vertex r of the result
// is the vertex of rank r, so Less(u, v) becomes u < v and degree never
// decreases with the id — and orig, where orig[r] is that vertex's id in g.
// Rows ascend in the new ids. The build is O(|V| + |E|) and sorts nothing:
// walking the ranks in ascending order and appending each to its neighbors'
// rows fills every row in order.
func ByDegree(g *Graph) (*Graph, []VertexID) {
	rank := degreeRanks(g)
	n := len(rank)
	orig := make([]VertexID, n)
	for v, r := range rank {
		orig[r] = VertexID(v)
	}
	// offsets[r+1] starts at the first slot of row r and is that row's fill
	// cursor: a full row has advanced it to the row's end, which is the start
	// of row r+1 — where offsets[r+1] belongs.
	offsets := make([]int64, n+1)
	for r := 1; r < n; r++ {
		offsets[r+1] = offsets[r] + int64(g.Degree(orig[r-1]))
	}
	adj := make([]VertexID, len(g.adj))
	for r, v := range orig {
		for _, u := range g.Neighbors(v) {
			adj[offsets[rank[u]+1]] = VertexID(r)
			offsets[rank[u]+1]++
		}
	}
	return &Graph{offsets: offsets, adj: adj}, orig
}

// NewIdentityOrdered wraps g with the trivial total order ranked by vertex
// id. Instance counts are invariant to the choice of total order, but the
// canonical representative of each automorphism class is not — and the
// degree order shifts as edges mutate. Delta maintenance therefore runs
// under the identity order, which is stable across mutations, so embeddings
// enumerated before and after a batch stay byte-comparable. It needs no
// arrays at all, which matters when every small update batch spins up fresh
// enumeration runs.
func NewIdentityOrdered(g *Graph) *Ordered {
	return &Ordered{G: g}
}

// Rank returns the order position of v (0 = lowest degree).
func (o *Ordered) Rank(v VertexID) int32 {
	if o.rank == nil {
		return v
	}
	return o.rank[v]
}

// Less reports whether u precedes v in the order.
func (o *Ordered) Less(u, v VertexID) bool {
	if o.rank == nil {
		return u < v
	}
	return o.rank[u] < o.rank[v]
}

// NB returns the number of neighbors of v ranked below v.
func (o *Ordered) NB(v VertexID) int32 { return o.NBValues()[v] }

// NS returns the number of neighbors of v ranked above v.
func (o *Ordered) NS(v VertexID) int32 { return o.NSValues()[v] }

// NBValues returns nb(v) for every vertex, for distribution analysis.
func (o *Ordered) NBValues() []int32 {
	o.split.Do(o.computeSplit)
	return o.nb
}

// NSValues returns ns(v) for every vertex, for distribution analysis.
func (o *Ordered) NSValues() []int32 {
	o.split.Do(o.computeSplit)
	return o.ns
}

func (o *Ordered) computeSplit() {
	n := o.G.NumVertices()
	nb := make([]int32, n)
	ns := make([]int32, n)
	for v := 0; v < n; v++ {
		for _, u := range o.G.Neighbors(VertexID(v)) {
			if o.Less(u, VertexID(v)) {
				nb[v]++
			} else {
				ns[v]++
			}
		}
	}
	o.nb, o.ns = nb, ns
}

// SizeBytes returns the footprint of the rank array (0 for the identity
// order); the on-request nb/ns split is not counted.
func (o *Ordered) SizeBytes() int64 { return 4 * int64(len(o.rank)) }
