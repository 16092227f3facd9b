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
// edge index of Section 5.2.3, the hub bitmap index, the random partition and
// each worker's share of the vertices. In the paper these are properties of
// the loaded graph, computed once; Prepare computes them once and any number
// of runs, concurrent ones included, share the result. A Prepared is
// immutable after Prepare returns.
type Prepared struct {
	*graphIndex
	workers int
	seed    int64
	// owner[v] is the worker that owns data vertex v under the random
	// partition, so every ownership test of a run — routing, the strategies'
	// views, seeding, the in-place edge checks — is a load, not a hash.
	owner []int32
	// owned[w] lists worker w's data vertices in ascending order, so Init is
	// O(V) total instead of every worker filtering all vertices. The buckets
	// are windows of one backing array.
	owned [][]graph.VertexID
}

// graphIndex is the worker-independent (and expensive) part of a Prepared:
// Prepared values for different worker counts share one.
type graphIndex struct {
	g      *graph.Graph
	knobs  indexKnobs
	ord    *graph.Ordered
	ix     *bloom.EdgeIndex // nil with the edge index disabled
	bitmap *graph.BitmapIndex

	// dist is the degree distribution the Algorithm 4 cost model reads; only
	// runs that select their initial vertex themselves ask for it.
	distOnce sync.Once
	dist     *stats.Distribution
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
		BitmapMinDegree:  opts.BitmapMinDegree,
	}
	if k.DisableEdgeIndex {
		k.BloomBitsPerEdge = 0 // no filter is built, so its size cannot differ
	}
	return k
}

// Prepare builds the graph-scoped state for runs over g (non-nil) under opts.
// Only Workers, Seed, IdentityOrder, DisableEdgeIndex, BloomBitsPerEdge and
// BitmapMinDegree are read; every run on the result must agree on those.
func Prepare(g *graph.Graph, opts Options) *Prepared {
	opts = opts.normalized()
	gi := &graphIndex{g: g, knobs: knobsOf(opts)}
	if opts.IdentityOrder {
		gi.ord = graph.NewIdentityOrdered(g)
	} else {
		gi.ord = graph.NewOrdered(g)
	}
	if !opts.DisableEdgeIndex {
		gi.ix = bloom.BuildEdgeIndex(g, opts.BloomBitsPerEdge)
	}
	gi.bitmap = graph.NewBitmapIndex(g, opts.BitmapMinDegree)
	return gi.partitioned(opts.Workers, opts.Seed)
}

// ForWorkers returns the state for the same graph, seed and index knobs under
// another worker count. The order and the indexes are shared, not rebuilt:
// only the ownership buckets depend on the worker count.
func (pr *Prepared) ForWorkers(workers int) *Prepared {
	if workers == pr.workers {
		return pr
	}
	return pr.graphIndex.partitioned(workers, pr.seed)
}

// partitioned records each vertex's owner, sizing the buckets as it goes,
// then fills the buckets in place.
func (gi *graphIndex) partitioned(workers int, seed int64) *Prepared {
	n := gi.g.NumVertices()
	pr := &Prepared{
		graphIndex: gi,
		workers:    workers,
		seed:       seed,
		owner:      make([]int32, n),
		owned:      make([][]graph.VertexID, workers),
	}
	part := graph.NewPartition(workers, seed)
	sizes := make([]int, workers)
	for v := range pr.owner {
		w := part.Owner(graph.VertexID(v))
		pr.owner[v] = int32(w)
		sizes[w]++
	}
	backing := make([]graph.VertexID, n)
	for w, off := 0, 0; w < workers; w++ {
		pr.owned[w] = backing[off : off : off+sizes[w]]
		off += sizes[w]
	}
	for v, w := range pr.owner {
		pr.owned[w] = append(pr.owned[w], graph.VertexID(v))
	}
	return pr
}

// SizeBytes returns the memory the state holds beyond the graph itself.
func (pr *Prepared) SizeBytes() int64 {
	n := pr.ord.SizeBytes() + pr.bitmap.SizeBytes() + 8*int64(pr.g.NumVertices())
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
