package graph

import "math/bits"

// Word-bitset helpers for the BitmapIndex hub rows: sets are []uint64 slices
// where bit i of word i/64 marks vertex i. All helpers tolerate length
// mismatches by treating the shorter operand as zero-padded, so callers can
// intersect a full row against a partially built set.

// PopCount returns the number of set bits in ws — the popcount-based degree
// of a bitset adjacency row.
func PopCount(ws []uint64) int {
	n := 0
	for _, w := range ws {
		n += bits.OnesCount64(w)
	}
	return n
}

// AndCount returns |a ∩ b| without materializing the intersection — the
// candidate-count probe of the bitset expansion fast path.
func AndCount(a, b []uint64) int {
	if len(b) < len(a) {
		a, b = b, a
	}
	n := 0
	for i, w := range a {
		n += bits.OnesCount64(w & b[i])
	}
	return n
}

// AndNotCount returns |a \ b| — the size of a's exclusive part, e.g. the
// exclusive-neighborhood cardinality N(w) \ N(sub) the ESU extension rule
// needs.
func AndNotCount(a, b []uint64) int {
	n := 0
	for i, w := range a {
		if i < len(b) {
			w &^= b[i]
		}
		n += bits.OnesCount64(w)
	}
	return n
}

// IterateSet calls fn for every set bit of ws in ascending order, stopping
// early when fn returns false. The per-word trailing-zeros loop touches only
// set bits, so sparse rows iterate in O(popcount) after the word scan.
func IterateSet(ws []uint64, fn func(v VertexID) bool) {
	for i, w := range ws {
		base := VertexID(i * 64)
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(base + VertexID(b)) {
				return
			}
			w &= w - 1
		}
	}
}

// BitmapIndex accelerates edge-existence checks against high-degree
// vertices: Section 5.1.1 of the paper notes that the GRAY-verification cost
// (costg) "can be done efficiently by a bitmap index". Each vertex whose
// degree reaches the threshold gets a bitset over all vertices, so HasEdge
// never binary-searches a (possibly huge) hub row: it searches the other
// endpoint's shorter row, or, when both endpoints are hubs, probes one bit.
// The memory cost stays at O(#hubs × |V|/8) bytes.
type BitmapIndex struct {
	g      *Graph
	minDeg int
	bits   map[VertexID][]uint64
	words  int
}

// NewBitmapIndex builds bitsets for every vertex of g with degree >= minDeg.
// minDeg <= 0 picks a default that caps the index at roughly 4 bytes per
// edge: hubs with degree >= max(256, |V|/32).
func NewBitmapIndex(g *Graph, minDeg int) *BitmapIndex {
	if minDeg <= 0 {
		minDeg = g.NumVertices() / 32
		if minDeg < 256 {
			minDeg = 256
		}
	}
	ix := &BitmapIndex{
		g:      g,
		minDeg: minDeg,
		bits:   map[VertexID][]uint64{},
		words:  (g.NumVertices() + 63) / 64,
	}
	for v := 0; v < g.NumVertices(); v++ {
		vd := VertexID(v)
		if g.Degree(vd) < minDeg {
			continue
		}
		set := make([]uint64, ix.words)
		for _, u := range g.Neighbors(vd) {
			set[u/64] |= 1 << (uint(u) % 64)
		}
		ix.bits[vd] = set
	}
	return ix
}

// HasEdge reports whether {u, v} is an edge. It binary-searches the shorter
// of the two CSR rows unless that row, too, reaches the hub threshold: then
// both endpoints have a bitset and one bit answers. So the hub map is read
// only for an edge between two hubs, where no row is short.
func (ix *BitmapIndex) HasEdge(u, v VertexID) bool {
	ru, rv := ix.g.Neighbors(u), ix.g.Neighbors(v)
	if len(rv) < len(ru) {
		ru, u, v = rv, v, u
	}
	if len(ru) < ix.minDeg {
		return rowHas(ru, v)
	}
	return ix.bits[u][v/64]&(1<<(uint(v)%64)) != 0
}

// Row returns v's bitset adjacency row, or nil when v's degree is below the
// index threshold — the gate of the engine's bitset-AND candidate fast path
// (a nil row means "not a hub: take the merge path"). Below the threshold it
// is one CSR degree read, not a map lookup. The returned slice is the index's
// internal storage and must not be modified.
func (ix *BitmapIndex) Row(v VertexID) []uint64 {
	if ix.g.Degree(v) < ix.minDeg {
		return nil
	}
	return ix.bits[v]
}

// MinDegree returns the hub threshold the index was built with.
func (ix *BitmapIndex) MinDegree() int { return ix.minDeg }

// IndexedVertices returns how many vertices carry a bitset.
func (ix *BitmapIndex) IndexedVertices() int { return len(ix.bits) }

// SizeBytes returns the memory footprint of the bitsets.
func (ix *BitmapIndex) SizeBytes() int64 {
	return int64(len(ix.bits)) * int64(ix.words) * 8
}
