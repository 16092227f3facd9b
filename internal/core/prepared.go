package core

import (
	"errors"
	"fmt"
	"sync"

	"psgl/internal/bloom"
	"psgl/internal/graph"
	"psgl/internal/stats"
)

// ErrPreparedMismatch reports a Prepared used with Options it was not built
// for. The graph-scoped state bakes in the worker count, the partition seed,
// the vertex order and the index knobs; running it under others would route
// Gpsis by one partition and seed them by another, so it is refused instead.
var ErrPreparedMismatch = errors.New("psgl: options do not match the prepared graph state")

// Prepared is everything a run needs that is a function of the data graph
// and not of the pattern — the ordered graph of Section 3, the light-weight
// edge index of Section 5.2.3, the hub bitmap index and the random partition.
// In the paper these are properties of the loaded graph, computed once;
// Prepare computes them once and any number of runs, concurrent ones
// included, share the result. A Prepared is immutable after Prepare returns.
type Prepared struct {
	*graphIndex
	workers int
	seed    int64
	// owner[r] is the worker that owns data vertex r under the random
	// partition of its caller id, so every ownership test of a run — routing,
	// Init, the strategies' views, seeding, the in-place edge checks — is a
	// load, not a hash.
	owner []int32
}

// graphIndex is the worker-independent (and expensive) part of a Prepared:
// Prepared values for different worker counts share one.
//
// Under the degree order the engine runs on the ordered graph itself: g is
// the caller's graph relabelled by rank, so the symmetry-breaking order
// between two data vertices is the order of their ids, and the edge index and
// hub bitmap are built over it. Under IdentityOrder g is the caller's graph.
type graphIndex struct {
	src    *graph.Graph // the graph Prepare was given
	g      *graph.Graph
	orig   []graph.VertexID // orig[r] is the caller id of vertex r; nil under IdentityOrder
	knobs  indexKnobs
	ix     *bloom.EdgeIndex // nil with the edge index disabled
	bitmap *graph.BitmapIndex

	// dist is the degree distribution the Algorithm 4 cost model reads; only
	// runs that select their initial vertex themselves ask for it.
	distOnce sync.Once
	dist     *stats.Distribution
	// rank is orig's inverse, which only seeded runs read to translate their
	// pins.
	rankOnce sync.Once
	rank     []graph.VertexID
}

// indexKnobs are the Options fields a graphIndex is a function of.
type indexKnobs struct {
	IdentityOrder    bool
	DisableEdgeIndex bool
	BloomBitsPerEdge int
	BitmapMinDegree  int
}

func knobsOf(opts Options) indexKnobs {
	k := indexKnobs{
		IdentityOrder:    opts.IdentityOrder,
		DisableEdgeIndex: opts.DisableEdgeIndex,
		BloomBitsPerEdge: opts.BloomBitsPerEdge,
		BitmapMinDegree:  opts.bitmapMinDegree,
	}
	if k.DisableEdgeIndex {
		k.BloomBitsPerEdge = 0 // no filter is built, so its size cannot differ
	}
	return k
}

// Prepare builds the graph-scoped state for runs over g (non-nil) under opts.
// Only Workers, Seed, IdentityOrder, DisableEdgeIndex, BloomBitsPerEdge and
// the bitmap's hub threshold are read; every run on the result must agree on
// those.
func Prepare(g *graph.Graph, opts Options) *Prepared {
	opts = opts.normalized()
	gi := &graphIndex{src: g, g: g, knobs: knobsOf(opts)}
	if !opts.IdentityOrder {
		gi.g, gi.orig = graph.ByDegree(g)
	}
	if !opts.DisableEdgeIndex {
		gi.ix = bloom.BuildEdgeIndex(gi.g, opts.BloomBitsPerEdge)
	}
	gi.bitmap = graph.NewBitmapIndex(gi.g, opts.bitmapMinDegree)
	return gi.partitioned(opts.Workers, opts.Seed)
}

// ForWorkers returns the state for the same graph, seed and index knobs under
// another worker count. The order and the indexes are shared, not rebuilt:
// only the owner array depends on the worker count.
func (pr *Prepared) ForWorkers(workers int) *Prepared {
	if workers == pr.workers {
		return pr
	}
	return pr.graphIndex.partitioned(workers, pr.seed)
}

// partitioned records each vertex's owner: the partition of its caller id.
func (gi *graphIndex) partitioned(workers int, seed int64) *Prepared {
	pr := &Prepared{
		graphIndex: gi,
		workers:    workers,
		seed:       seed,
		owner:      make([]int32, gi.g.NumVertices()),
	}
	part := graph.NewPartition(workers, seed)
	for r := range pr.owner {
		v := graph.VertexID(r)
		if gi.orig != nil {
			v = gi.orig[r]
		}
		pr.owner[r] = int32(part.Owner(v))
	}
	return pr
}

// ranks returns the caller-id → vertex map, built on first use; nil under the
// identity order, where the two agree.
func (gi *graphIndex) ranks() []graph.VertexID {
	if gi.orig == nil {
		return nil
	}
	gi.rankOnce.Do(func() {
		gi.rank = make([]graph.VertexID, len(gi.orig))
		for r, v := range gi.orig {
			gi.rank[v] = graph.VertexID(r)
		}
	})
	return gi.rank
}

// SizeBytes returns the memory the state holds beyond the caller's graph: the
// relabelled CSR and orig (none under the identity order), the indexes and
// the owner array.
func (pr *Prepared) SizeBytes() int64 {
	n := pr.bitmap.SizeBytes() + 4*int64(len(pr.owner)) + 4*int64(len(pr.orig))
	if pr.orig != nil {
		n += pr.g.SizeBytes()
	}
	if pr.ix != nil {
		n += pr.ix.SizeBytes()
	}
	return n
}

// degreeDist returns the data graph's degree distribution, built on first use.
func (gi *graphIndex) degreeDist() *stats.Distribution {
	gi.distOnce.Do(func() { gi.dist = stats.FromHistogram(gi.g.DegreeHistogram()) })
	return gi.dist
}

// check reports whether (normalized) opts are the ones pr was built for.
func (pr *Prepared) check(opts Options) error {
	if opts.Workers != pr.workers || opts.Seed != pr.seed {
		return fmt.Errorf("%w: built for %d workers and seed %d, run with %d and %d",
			ErrPreparedMismatch, pr.workers, pr.seed, opts.Workers, opts.Seed)
	}
	if k := knobsOf(opts); k != pr.knobs {
		return fmt.Errorf("%w: built with %+v, run with %+v", ErrPreparedMismatch, pr.knobs, k)
	}
	return nil
}
