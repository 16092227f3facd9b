package graph

import (
	"fmt"
	"math"
	"slices"
)

// Overlay is a versioned mutable view over an immutable CSR base graph. The
// base stays frozen (queries in flight keep reading it safely); mutations
// land as batches of edge additions and removals tracked in small patch sets,
// and Snapshot materializes the current edge set back into a fresh immutable
// CSR when a consistent *Graph is needed. Each accepted batch advances an
// epoch counter, and the overlay maintains the order-independent edge
// fingerprint incrementally, so the invariant
//
//	ov.Fingerprint() == ov.Snapshot().EdgeFingerprint()
//
// holds after every batch — the query service reports that fingerprint in
// /stats without materializing a snapshot.
//
// The vertex set is fixed at construction: an overlay can rewire edges among
// the base's vertices but never grows |V|.
//
// An Overlay is not safe for concurrent use; callers serialize mutations and
// publish immutable Snapshot results to readers.
type Overlay struct {
	base    *Graph
	added   map[uint64]struct{} // edges present here but absent in base
	removed map[uint64]struct{} // edges present in base but deleted here
	epoch   uint64
	fp      uint64 // incremental edge fingerprint of the current edge set
	edges   int64  // current |E|
	snap    *Graph // cached Snapshot; nil when stale
	// lifetime counters, surfaced in /stats
	addedTotal   int64
	removedTotal int64
	noopTotal    int64
	compactions  int64
}

// Batch is one atomic group of edge mutations. Removals apply before
// additions, so an edge listed in both ends up present.
type Batch struct {
	Add    [][2]VertexID
	Remove [][2]VertexID
}

// BatchResult reports what a batch actually changed. Added/Removed list the
// effective mutations (normalized u < v, deduplicated, noops dropped) — the
// exact anchor sets a delta enumeration needs.
type BatchResult struct {
	Epoch   uint64 // epoch after the batch
	Added   [][2]VertexID
	Removed [][2]VertexID
	Noops   int // entries that did not change the edge set
}

// edgeKey packs a normalized undirected edge into one comparable word.
func edgeKey(u, v VertexID) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

// mix64 is the splitmix64 finalizer: a cheap 64-bit permutation with good
// avalanche, so summing mixed edge keys gives an order-independent digest
// that single edge flips always change.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// NewOverlay starts an overlay over base with an empty patch set.
func NewOverlay(base *Graph) *Overlay {
	return &Overlay{
		base:    base,
		added:   make(map[uint64]struct{}),
		removed: make(map[uint64]struct{}),
		fp:      base.EdgeFingerprint(),
		edges:   base.NumEdges(),
		snap:    base,
	}
}

// NumVertices returns |V| (fixed at construction).
func (o *Overlay) NumVertices() int { return o.base.NumVertices() }

// NumEdges returns the current |E| including pending patches.
func (o *Overlay) NumEdges() int64 { return o.edges }

// Epoch returns the number of accepted batches so far.
func (o *Overlay) Epoch() uint64 { return o.epoch }

// Fingerprint returns the order-independent edge fingerprint of the current
// edge set, maintained incrementally across batches and compactions.
func (o *Overlay) Fingerprint() uint64 { return o.fp }

// PatchSize returns the number of pending patch entries (added + removed)
// not yet folded into the base CSR — the compaction trigger.
func (o *Overlay) PatchSize() int { return len(o.added) + len(o.removed) }

// Compactions returns how many times the patch set has been folded back
// into the base CSR.
func (o *Overlay) Compactions() int64 { return o.compactions }

// MutationStats returns lifetime counts of effective additions, effective
// removals, and noop entries across all accepted batches.
func (o *Overlay) MutationStats() (added, removed, noops int64) {
	return o.addedTotal, o.removedTotal, o.noopTotal
}

// HasEdge reports whether {u, v} is present in the current edge set.
func (o *Overlay) HasEdge(u, v VertexID) bool {
	k := edgeKey(u, v)
	if _, ok := o.added[k]; ok {
		return true
	}
	if _, ok := o.removed[k]; ok {
		return false
	}
	return o.base.HasEdge(u, v)
}

// validateEdge rejects self-loops and out-of-range endpoints. The vertex set
// is fixed, so referencing a vertex the base does not have is an error, not
// an implicit grow.
func (o *Overlay) validateEdge(kind string, e [2]VertexID) error {
	n := o.base.NumVertices()
	if int(e[0]) < 0 || int(e[0]) >= n || int(e[1]) < 0 || int(e[1]) >= n {
		return fmt.Errorf("graph: %s edge (%d,%d) out of range [0,%d)", kind, e[0], e[1], n)
	}
	if e[0] == e[1] {
		return fmt.Errorf("graph: %s edge (%d,%d) is a self-loop", kind, e[0], e[1])
	}
	return nil
}

// ApplyBatch applies one mutation batch atomically: the whole batch is
// validated first, and a validation error leaves the overlay untouched.
// Removals apply before additions. Entries that do not change the edge set
// (adding a present edge, removing an absent one, add+remove cancelling
// within the batch) are counted as noops. Every accepted batch — even an
// all-noop one — advances the epoch.
func (o *Overlay) ApplyBatch(b Batch) (BatchResult, error) {
	for _, e := range b.Remove {
		if err := o.validateEdge("remove", e); err != nil {
			return BatchResult{}, err
		}
	}
	for _, e := range b.Add {
		if err := o.validateEdge("add", e); err != nil {
			return BatchResult{}, err
		}
	}
	var res BatchResult
	for _, e := range b.Remove {
		u, v := e[0], e[1]
		if u > v {
			u, v = v, u
		}
		if !o.HasEdge(u, v) {
			res.Noops++
			continue
		}
		k := edgeKey(u, v)
		if _, ok := o.added[k]; ok {
			delete(o.added, k)
		} else {
			o.removed[k] = struct{}{}
		}
		o.fp -= mix64(k)
		o.edges--
		res.Removed = append(res.Removed, [2]VertexID{u, v})
	}
	for _, e := range b.Add {
		u, v := e[0], e[1]
		if u > v {
			u, v = v, u
		}
		if o.HasEdge(u, v) {
			res.Noops++
			continue
		}
		k := edgeKey(u, v)
		if _, ok := o.removed[k]; ok {
			delete(o.removed, k)
		} else {
			o.added[k] = struct{}{}
		}
		o.fp += mix64(k)
		o.edges++
		res.Added = append(res.Added, [2]VertexID{u, v})
	}
	if len(res.Added) > 0 || len(res.Removed) > 0 {
		o.snap = nil
	}
	o.epoch++
	o.addedTotal += int64(len(res.Added))
	o.removedTotal += int64(len(res.Removed))
	o.noopTotal += int64(res.Noops)
	res.Epoch = o.epoch
	return res, nil
}

// Snapshot materializes the current edge set as an immutable CSR graph: the
// base CSR merged with the pending patches, so the cost is a bulk copy of the
// untouched rows plus a splice of the touched ones — no edge is re-added and
// no row re-sorted. The result is byte-identical to building the edge set
// from scratch (equal Fingerprint), is cached until the next effective
// mutation, and shares no mutable state with the overlay.
func (o *Overlay) Snapshot() *Graph {
	if o.snap == nil {
		o.snap = o.base.Patched(o.Patch())
	}
	return o.snap
}

// Patch returns the pending patch relative to Base() as edge lists, each edge
// as (u, v) with u < v, in no particular order: the current edge set is
// Base() plus added minus removed, which Snapshot materializes with
// Base().Patched.
func (o *Overlay) Patch() (added, removed [][2]VertexID) {
	return keyEdges(o.added), keyEdges(o.removed)
}

// keyEdges unpacks a set of normalized undirected edge keys.
func keyEdges(set map[uint64]struct{}) [][2]VertexID {
	edges := make([][2]VertexID, 0, len(set))
	for k := range set {
		edges = append(edges, [2]VertexID{VertexID(uint32(k >> 32)), VertexID(uint32(k))})
	}
	return edges
}

// Patched returns g minus the undirected edges in removed (each present in g)
// plus those in added (each absent from g), given in either orientation and
// any order; g is unchanged. Runs of rows no patch touches are copied whole;
// a touched row is merged with its sorted insertions and deletions in one
// pass, so no edge goes back through a Builder and no row is re-sorted, yet
// the result is the CSR a Builder makes of the same edge set.
func (g *Graph) Patched(added, removed [][2]VertexID) *Graph {
	ins, del := directedKeys(added), directedKeys(removed)
	n := g.NumVertices()
	offsets := make([]int64, n+1)
	adj := make([]VertexID, 0, len(g.adj)+len(ins)-len(del))
	copyRows := func(from, to int) {
		shift := int64(len(adj)) - g.offsets[from]
		for v := from; v < to; v++ {
			offsets[v] = g.offsets[v] + shift
		}
		adj = append(adj, g.adj[g.offsets[from]:g.offsets[to]]...)
	}
	next := 0 // first row not yet written
	for len(ins) > 0 || len(del) > 0 {
		var src uint64 = math.MaxUint64
		if len(ins) > 0 {
			src = ins[0] >> 32
		}
		if len(del) > 0 && del[0]>>32 < src {
			src = del[0] >> 32
		}
		t := int(src)
		copyRows(next, t)
		offsets[t] = int64(len(adj))
		for _, u := range g.Neighbors(VertexID(t)) {
			for len(ins) > 0 && ins[0] < src<<32|uint64(uint32(u)) {
				adj = append(adj, VertexID(uint32(ins[0])))
				ins = ins[1:]
			}
			if len(del) > 0 && del[0] == src<<32|uint64(uint32(u)) {
				del = del[1:]
				continue
			}
			adj = append(adj, u)
		}
		for len(ins) > 0 && ins[0]>>32 == src {
			adj = append(adj, VertexID(uint32(ins[0])))
			ins = ins[1:]
		}
		next = t + 1
	}
	copyRows(next, n)
	offsets[n] = int64(len(adj))
	return &Graph{offsets: offsets, adj: adj}
}

// directedKeys expands undirected edges into both directed (src<<32 | dst)
// entries, sorted — row by row, neighbors ascending.
func directedKeys(edges [][2]VertexID) []uint64 {
	keys := make([]uint64, 0, 2*len(edges))
	for _, e := range edges {
		k := edgeKey(e[0], e[1])
		keys = append(keys, k, k<<32|k>>32)
	}
	slices.Sort(keys)
	return keys
}

// Compact folds the pending patch set into a fresh base CSR, emptying the
// patches. Epoch and fingerprint are unchanged — compaction rewrites the
// representation, not the edge set. Returns the new base.
func (o *Overlay) Compact() *Graph {
	s := o.Snapshot()
	o.base = s
	o.added = make(map[uint64]struct{})
	o.removed = make(map[uint64]struct{})
	o.compactions++
	return s
}

// Base returns the current immutable base CSR (pre-patch edge set, unless a
// compaction just folded the patches in).
func (o *Overlay) Base() *Graph { return o.base }
