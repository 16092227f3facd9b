// Package bloom implements the light-weight edge index of Section 5.2.3: a
// bloom filter over the undirected edges of the data graph. Each worker keeps
// a copy (the paper notes the Twitter index costs only ~2GB on each node), so
// a Gpsi expansion can check the existence of an edge whose endpoints live on
// remote workers without communication. The filter is one-sided: a negative
// answer is exact (the edge definitely does not exist, the Gpsi can be pruned
// immediately), while a positive answer may be a false positive and must be
// re-verified exactly by a later expansion step.
package bloom

import (
	"math"
	"slices"

	"psgl/internal/graph"
)

// Filter is a standard double-hashing bloom filter specialized to edge keys.
type Filter struct {
	bits    []uint64
	nbits   uint64
	k       int
	entries int64
}

// New creates a filter sized for n entries at the given bits-per-entry
// budget. The optimal number of hash functions k = bits/entry * ln2 is used.
// bitsPerEntry <= 0 defaults to 10 (false-positive rate ≈ 1%).
func New(n int64, bitsPerEntry int) *Filter {
	if bitsPerEntry <= 0 {
		bitsPerEntry = 10
	}
	if n < 1 {
		n = 1
	}
	nbits := uint64(n) * uint64(bitsPerEntry)
	if nbits < 64 {
		nbits = 64
	}
	k := int(math.Round(float64(bitsPerEntry) * math.Ln2))
	if k < 1 {
		k = 1
	}
	return &Filter{
		bits:  make([]uint64, (nbits+63)/64),
		nbits: nbits,
		k:     k,
	}
}

// edgeKey produces an order-independent 64-bit key for the undirected edge
// {u, v}.
func edgeKey(u, v graph.VertexID) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

func (f *Filter) hashes(key uint64) (h1, h2 uint64) {
	h1 = mix(key)
	h2 = mix(key ^ 0x9e3779b97f4a7c15)
	if h2 == 0 {
		h2 = 0x9e3779b97f4a7c15
	}
	return h1, h2
}

// AddEdge inserts the undirected edge {u, v}.
func (f *Filter) AddEdge(u, v graph.VertexID) {
	h1, h2 := f.hashes(edgeKey(u, v))
	for i := 0; i < f.k; i++ {
		pos := (h1 + uint64(i)*h2) % f.nbits
		f.bits[pos/64] |= 1 << (pos % 64)
	}
	f.entries++
}

// MayHaveEdge reports whether {u, v} might be present. False means definitely
// absent; true may be a false positive.
func (f *Filter) MayHaveEdge(u, v graph.VertexID) bool {
	h1, h2 := f.hashes(edgeKey(u, v))
	for i := 0; i < f.k; i++ {
		pos := (h1 + uint64(i)*h2) % f.nbits
		if f.bits[pos/64]&(1<<(pos%64)) == 0 {
			return false
		}
	}
	return true
}

// Entries returns the number of edges inserted.
func (f *Filter) Entries() int64 { return f.entries }

// SizeBytes returns the memory footprint of the bit array.
func (f *Filter) SizeBytes() int64 { return int64(len(f.bits)) * 8 }

// EstimatedFalsePositiveRate returns the analytic false-positive probability
// (1 - e^(-kn/m))^k for the current fill level.
func (f *Filter) EstimatedFalsePositiveRate() float64 {
	if f.entries == 0 {
		return 0
	}
	exp := -float64(f.k) * float64(f.entries) / float64(f.nbits)
	return math.Pow(1-math.Exp(exp), float64(f.k))
}

// EdgeIndex is the shared light-weight index PSgL workers consult during
// candidate generation (Algorithm 5, pruning rule 2).
type EdgeIndex struct {
	filter *Filter
}

// BuildEdgeIndex indexes every edge of g. Building is O(|E|).
func BuildEdgeIndex(g *graph.Graph, bitsPerEdge int) *EdgeIndex {
	f := New(g.NumEdges(), bitsPerEdge)
	g.Edges(func(u, v graph.VertexID) bool {
		f.AddEdge(u, v)
		return true
	})
	return &EdgeIndex{filter: f}
}

// Patched returns a copy of the index with the edges in added ORed in; ix
// itself is unchanged. A plain filter cannot forget an edge, so a removal
// needs no call: the removed edge stays set, one more false positive that a
// Gpsi's exact verification refutes. The copy keeps ix's size, so its
// false-positive rate grows with the patch until the index is rebuilt.
func (ix *EdgeIndex) Patched(added [][2]graph.VertexID) *EdgeIndex {
	f := *ix.filter
	f.bits = slices.Clone(f.bits)
	for _, e := range added {
		f.AddEdge(e[0], e[1])
	}
	return &EdgeIndex{filter: &f}
}

// MayHaveEdge reports whether the data graph may contain {u, v}. No false
// negatives: every real edge answers true.
func (ix *EdgeIndex) MayHaveEdge(u, v graph.VertexID) bool {
	return ix.filter.MayHaveEdge(u, v)
}

// SizeBytes returns the index footprint.
func (ix *EdgeIndex) SizeBytes() int64 { return ix.filter.SizeBytes() }

// FalsePositiveRate returns the analytic false-positive estimate.
func (ix *EdgeIndex) FalsePositiveRate() float64 {
	return ix.filter.EstimatedFalsePositiveRate()
}
