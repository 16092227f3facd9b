package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"psgl/internal/bloom"
	"psgl/internal/graph"
	"psgl/internal/stats"
)

// ErrPreparedMismatch reports a Prepared used with Options it was not built
// for. The graph-scoped state bakes in the worker count, the partition seed,
// the vertex order and the hub threshold; running it under others would route
// Gpsis by one partition and seed them by another, so it is refused instead.
// A PreparePartitioned state also runs in one configuration only — strict, in
// process, without checkpoints and not resumed — and refuses the others.
var ErrPreparedMismatch = errors.New("psgl: options do not match the prepared graph state")

// Prepared is everything a run needs that is a function of the data graph
// and not of the pattern — the ordered graph of Section 3, the hub bitmap
// index, the random partition and, in the partitioned model, the light-weight
// edge index of Section 5.2.3. In the paper these are properties of the loaded
// graph, computed once; Prepare computes them once and any number of runs,
// concurrent ones included, share the result, and Patch carries them to an
// edited graph. A Prepared is immutable after Prepare or Patch returns.
//
// A Prepared also fixes the program its runs execute. Prepare's runs share
// one memory domain (engine.go): every worker reads every row, so a closing
// edge is checked exactly where it is met; the partition only routes Gpsis,
// for load balance. PreparePartitioned's runs are the paper's
// vertex-partitioned model (partitioned.go), with its distribution
// strategies, which the paper-figure experiments run — strict, in process and
// with no checkpoint, the one configuration the model accepts.
type Prepared struct {
	*graphIndex
	workers int
	seed    int64
	// owner[r] is the worker that owns data vertex r under the random
	// partition of its caller id, so every ownership test of a run — routing,
	// Init, the partitioned strategies' views, seeding, the in-place edge
	// checks — is a load, not a hash.
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
	src   *graph.Graph // the graph Prepare or Patch was given
	g     *graph.Graph
	orig  []graph.VertexID // orig[r] is the caller id of vertex r; nil under IdentityOrder
	knobs indexKnobs
	// paper is the partitioned model's set-up; nil in one memory domain.
	paper  *model
	bitmap *graph.BitmapIndex
	// byDegree is set when degree never decreases with the rank, so the engine
	// may read its degree filter off the rank: on the graph Prepare relabelled,
	// not under IdentityOrder and not on a Patch, whose edits move degrees but
	// keep the base's order.
	byDegree bool

	// dist is the degree distribution the Algorithm 4 cost model reads; only
	// runs that select their initial vertex themselves ask for it.
	distOnce sync.Once
	dist     *stats.Distribution
	// rank is orig's inverse, which seeded runs read to translate their pins
	// and Patch to translate the edited edges. A patched state shares its
	// base's.
	rankOnce sync.Once
	rank     atomic.Pointer[[]graph.VertexID]
}

// indexKnobs are the Options fields a graphIndex is a function of.
type indexKnobs struct {
	IdentityOrder   bool
	BitmapMinDegree int
}

func knobsOf(opts Options) indexKnobs {
	return indexKnobs{IdentityOrder: opts.IdentityOrder, BitmapMinDegree: opts.bitmapMinDegree}
}

// BloomBitsPerEdge is the size of the light-weight edge index in the paper's
// setting, the one the paper-figure experiments pass to PreparePartitioned.
const BloomBitsPerEdge = 10

// Prepare builds the graph-scoped state for runs over g (non-nil) under opts,
// in one memory domain: no edge index is built. Only Workers, Seed,
// IdentityOrder and the bitmap's hub threshold are read; every run on the
// result must agree on those.
func Prepare(g *graph.Graph, opts Options) *Prepared { return prepare(g, opts, nil, 0) }

// PreparePartitioned is Prepare for the paper's vertex-partitioned model: a
// worker checks a closing edge exactly only when it owns an endpoint, asks the
// light-weight edge index, built at bitsPerEdge bits per edge, otherwise, and
// leaves the edge pending, for a verification hop, when the index says yes.
// bitsPerEdge 0 builds no index, the "w/o index" configuration of Table 2:
// every closing edge not checked along the expanding vertex's row then stays
// pending until an endpoint expands. A Gpsi goes to the worker its next
// expanding vertex's image belongs to, and strategy picks that vertex
// (Section 5.1); alpha is the workload-aware penalty exponent in (0, 1],
// where zero or negative means the paper's 0.5 (pass a small epsilon like
// 0.001 to study the α→0 extreme). Its runs are strict and in process and
// take no checkpoint: Options that set AsyncExchange, Exchange,
// CheckpointEvery, CheckpointStore or ResumeFrom fail with
// ErrPreparedMismatch before anything starts.
func PreparePartitioned(g *graph.Graph, opts Options, bitsPerEdge int, strategy Strategy, alpha float64) *Prepared {
	if alpha <= 0 {
		alpha = 0.5
	}
	return prepare(g, opts, &model{strategy: strategy, alpha: min(alpha, 1)}, bitsPerEdge)
}

func prepare(g *graph.Graph, opts Options, paper *model, bitsPerEdge int) *Prepared {
	opts = opts.normalized()
	gi := &graphIndex{src: g, g: g, knobs: knobsOf(opts), paper: paper}
	if !opts.IdentityOrder {
		gi.g, gi.orig = graph.ByDegree(g)
		gi.byDegree = true
	}
	if bitsPerEdge > 0 {
		paper.ix = bloom.BuildEdgeIndex(gi.g, bitsPerEdge)
	}
	gi.bitmap = graph.NewBitmapIndex(gi.g, opts.bitmapMinDegree)
	return gi.partitioned(opts.Workers, opts.Seed)
}

// Patch returns the state for g, whose edge set is that of pr's graph plus
// added minus removed (caller ids, either orientation; each added edge absent
// from pr's graph, each removed one present), in pr's vertex order rather
// than g's own degree order. Any fixed total order on the data vertices
// breaks each automorphism exactly once, so counts are a fresh Prepare's and
// embeddings equal its embeddings as vertex sets; the degree order only keeps
// the order windows small. A patched state is not byDegree, so its runs test
// each candidate's degree rather than read it off the rank.
//
// The owner array, orig and its inverse are pr's, shared. The relabelled CSR
// is pr's merged with the patch (graph.Patched); the edge index, if pr has
// one, is a copy of pr's with the added edges ORed in, so a removed edge stays
// set — one more false positive, which exact verification refutes; the hub
// bitmap is rebuilt over the patched CSR. pr is unchanged.
func (pr *Prepared) Patch(g *graph.Graph, added, removed [][2]graph.VertexID) *Prepared {
	gi := &graphIndex{src: g, g: g, orig: pr.orig, knobs: pr.knobs}
	if rank := pr.ranks(); rank != nil {
		added, removed = relabelEdges(added, rank), relabelEdges(removed, rank)
		gi.g = pr.g.Patched(added, removed)
		gi.rankOnce.Do(func() { gi.rank.Store(pr.rank.Load()) })
	}
	gi.paper = pr.paper.patched(added)
	gi.bitmap = graph.NewBitmapIndex(gi.g, pr.knobs.BitmapMinDegree)
	return &Prepared{graphIndex: gi, workers: pr.workers, seed: pr.seed, owner: pr.owner}
}

// relabelEdges translates caller-id edges into rank space.
func relabelEdges(edges [][2]graph.VertexID, rank []graph.VertexID) [][2]graph.VertexID {
	out := make([][2]graph.VertexID, len(edges))
	for i, e := range edges {
		out[i] = [2]graph.VertexID{rank[e[0]], rank[e[1]]}
	}
	return out
}

// ForWorkers returns the state for the same graph, seed, index knobs and model
// under another worker count. The order and the indexes are shared, not rebuilt:
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
		rank := make([]graph.VertexID, len(gi.orig))
		for r, v := range gi.orig {
			rank[v] = graph.VertexID(r)
		}
		gi.rank.Store(&rank)
	})
	return *gi.rank.Load()
}

// SizeBytes returns the memory the state holds beyond the caller's graph: the
// relabelled CSR, orig and, once built, its inverse (none under the identity
// order), the indexes and the owner array.
func (pr *Prepared) SizeBytes() int64 { return pr.SizeBytesBeside(nil) }

// SizeBytesBeside is SizeBytes less the arrays pr shares with other (nil
// shares nothing) — the owner array, orig and its inverse, which a patched
// state shares with the state it was patched from — so the two together hold
// base.SizeBytes() + patched.SizeBytesBeside(base).
func (pr *Prepared) SizeBytesBeside(other *Prepared) int64 {
	var owner, orig, rank []int32
	if other != nil {
		owner, orig, rank = other.owner, other.orig, other.builtRanks()
	}
	n := pr.bitmap.SizeBytes() + unsharedBytes(pr.owner, owner) +
		unsharedBytes(pr.orig, orig) + unsharedBytes(pr.builtRanks(), rank)
	if pr.orig != nil {
		n += pr.g.SizeBytes()
	}
	return n + pr.paper.indexBytes()
}

// builtRanks returns orig's inverse if something has built it, else nil.
func (gi *graphIndex) builtRanks() []graph.VertexID {
	if r := gi.rank.Load(); r != nil {
		return *r
	}
	return nil
}

// unsharedBytes is a's size, or 0 when b is the same array.
func unsharedBytes(a, b []int32) int64 {
	if len(a) > 0 && len(b) > 0 && &a[0] == &b[0] {
		return 0
	}
	return 4 * int64(len(a))
}

// degreeDist returns the data graph's degree distribution, built on first use.
func (gi *graphIndex) degreeDist() *stats.Distribution {
	gi.distOnce.Do(func() { gi.dist = stats.FromHistogram(gi.g.DegreeHistogram()) })
	return gi.dist
}

// check reports whether (normalized) opts are the ones pr was built for, and,
// in the partitioned model, whether they ask for its one configuration.
func (pr *Prepared) check(opts Options) error {
	if pr.paper != nil && (opts.AsyncExchange || opts.Exchange != nil ||
		opts.CheckpointEvery > 0 || opts.CheckpointStore != nil || opts.ResumeFrom != nil) {
		return fmt.Errorf("%w: the partitioned model runs strict and in process, with no checkpoint or resume", ErrPreparedMismatch)
	}
	if opts.Workers != pr.workers || opts.Seed != pr.seed {
		return fmt.Errorf("%w: built for %d workers and seed %d, run with %d and %d",
			ErrPreparedMismatch, pr.workers, pr.seed, opts.Workers, opts.Seed)
	}
	if k := knobsOf(opts); k != pr.knobs {
		return fmt.Errorf("%w: built with %+v, run with %+v", ErrPreparedMismatch, pr.knobs, k)
	}
	return nil
}
