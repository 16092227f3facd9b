// Package graph provides the data-graph substrate for PSgL: an immutable
// undirected graph in compressed sparse row (CSR) form, a builder, edge-list
// I/O, the degree-based vertex ordering from Section 3 of the paper (the
// "ordered graph" with its nb/ns neighbor split), and the random vertex
// partitioner used to spread the data graph across BSP workers.
//
// Vertices are dense int32 identifiers in [0, NumVertices). All graphs are
// simple: self-loops and duplicate edges are removed at build time, matching
// the paper's preprocessing ("adding reciprocal edge and eliminating loops").
package graph

import (
	"fmt"
	"sort"
)

// VertexID identifies a vertex of a data graph. Data graphs in the paper
// reach 42M vertices; int32 covers that while halving adjacency memory
// relative to int64.
type VertexID = int32

// Graph is an immutable undirected simple graph in CSR form. Neighbor lists
// are sorted ascending by vertex id, which makes HasEdge a binary search and
// set intersections linear.
type Graph struct {
	offsets []int64
	adj     []VertexID
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return len(g.offsets) - 1 }

// NumEdges returns |E|, counting each undirected edge once.
func (g *Graph) NumEdges() int64 { return int64(len(g.adj)) / 2 }

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v VertexID) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the sorted adjacency list of v. The returned slice
// aliases the graph's internal storage and must not be modified.
func (g *Graph) Neighbors(v VertexID) []VertexID {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// HasEdge reports whether the undirected edge {u, v} is present. It
// binary-searches the shorter of the two rows, with no closure.
func (g *Graph) HasEdge(u, v VertexID) bool {
	ru, rv := g.Neighbors(u), g.Neighbors(v)
	if len(rv) < len(ru) {
		return rowHas(rv, u)
	}
	return rowHas(ru, v)
}

// rowHas reports whether the sorted row contains v.
func rowHas(row []VertexID, v VertexID) bool {
	i := LowerBound(row, v)
	return i < len(row) && row[i] == v
}

// LowerBound returns the index of the first entry of the sorted row that is
// not below v, or len(row).
func LowerBound(row []VertexID, v VertexID) int {
	lo, hi := 0, len(row)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if row[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// SeekRow returns the suffix of the sorted row that starts at its first entry
// not below v. Calls with ascending v, each on the suffix the previous one
// returned, walk the row once: the merge step of a sorted-set intersection,
// which tests a run of ascending vertices against one row without a binary
// search each. A long skip gallops, so a few far-apart probes into a long row
// cost logarithmic, not linear, time.
func SeekRow(row []VertexID, v VertexID) []VertexID {
	if len(row) == 0 || row[0] >= v {
		return row
	}
	// row[lo] < v throughout; the first entry not below v lies in (lo, hi].
	lo, step := 0, 1
	for lo+step < len(row) && row[lo+step] < v {
		lo += step
		step <<= 1
	}
	hi := min(lo+step, len(row)-1)
	if row[hi] < v {
		return row[len(row):]
	}
	return row[lo+1+LowerBound(row[lo+1:hi], v):]
}

// Meet advances two sorted rows to their first common entry: it returns the
// suffixes of a and b that start at it, or an empty a when the rows share
// none. Calls each on the suffixes the previous one returned, past the match,
// walk a ∩ b in ascending order. Each side seeks the other's head by SeekRow,
// so the walk gallops along the longer row and steps along the shorter one:
// a short row against a long one costs the short one's length times a
// logarithm, not the long one's length.
func Meet(a, b []VertexID) ([]VertexID, []VertexID) {
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			a = SeekRow(a, b[0])
		case b[0] < a[0]:
			b = SeekRow(b, a[0])
		default:
			return a, b
		}
	}
	return a[len(a):], b
}

// SizeBytes returns the footprint of the CSR arrays.
func (g *Graph) SizeBytes() int64 { return 8*int64(len(g.offsets)) + 4*int64(len(g.adj)) }

// MaxDegree returns the largest vertex degree, or 0 for an empty graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.Degree(VertexID(v)); d > max {
			max = d
		}
	}
	return max
}

// Edges calls fn once per undirected edge with u < v. It stops early if fn
// returns false.
func (g *Graph) Edges(fn func(u, v VertexID) bool) {
	for u := 0; u < g.NumVertices(); u++ {
		for _, v := range g.Neighbors(VertexID(u)) {
			if v > VertexID(u) {
				if !fn(VertexID(u), v) {
					return
				}
			}
		}
	}
}

// DegreeHistogram returns h where h[d] is the number of vertices of degree d.
func (g *Graph) DegreeHistogram() []int64 {
	h := make([]int64, g.MaxDegree()+1)
	for v := 0; v < g.NumVertices(); v++ {
		h[g.Degree(VertexID(v))]++
	}
	return h
}

// Builder accumulates edges and produces an immutable Graph. It tolerates
// duplicate edges, reversed duplicates, and self-loops; Build removes them.
type Builder struct {
	n    int
	srcs []VertexID
	dsts []VertexID
}

// NewBuilder creates a builder for a graph with n vertices.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Builder{n: n}
}

// AddEdge records the undirected edge {u, v}. Self-loops are ignored.
func (b *Builder) AddEdge(u, v VertexID) {
	if u == v {
		return
	}
	if int(u) < 0 || int(u) >= b.n || int(v) < 0 || int(v) >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n))
	}
	b.srcs = append(b.srcs, u, v)
	b.dsts = append(b.dsts, v, u)
}

// NumPendingEdges returns the number of directed edge records added so far
// (2x the undirected count, before deduplication).
func (b *Builder) NumPendingEdges() int { return len(b.srcs) }

// Build produces the CSR graph. The builder can be reused afterwards, but
// shares no storage with the result.
func (b *Builder) Build() *Graph {
	deg := make([]int64, b.n+1)
	for _, u := range b.srcs {
		deg[u+1]++
	}
	offsets := make([]int64, b.n+1)
	for i := 1; i <= b.n; i++ {
		offsets[i] = offsets[i-1] + deg[i]
	}
	adj := make([]VertexID, offsets[b.n])
	cursor := make([]int64, b.n)
	copy(cursor, offsets[:b.n])
	for i, u := range b.srcs {
		adj[cursor[u]] = b.dsts[i]
		cursor[u]++
	}
	// Sort each adjacency list and drop duplicates in place.
	outOff := make([]int64, b.n+1)
	w := int64(0)
	for u := 0; u < b.n; u++ {
		lo, hi := offsets[u], offsets[u+1]
		list := adj[lo:hi]
		sort.Slice(list, func(i, j int) bool { return list[i] < list[j] })
		outOff[u] = w
		var prev VertexID = -1
		for _, v := range list {
			if v != prev {
				adj[w] = v
				w++
				prev = v
			}
		}
	}
	outOff[b.n] = w
	return &Graph{offsets: outOff, adj: adj[:w:w]}
}

// FromEdges builds a graph with n vertices from an explicit edge list.
func FromEdges(n int, edges [][2]VertexID) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}
