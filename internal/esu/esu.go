// Package esu is the repo's second engine: a shared-memory motif census.
// Where the PSgL engine (internal/core) lists every embedding of one given
// pattern, this engine enumerates every connected k-vertex subgraph of the
// data graph exactly once — Wernicke's ESU algorithm — and classifies each by
// isomorphism class, producing the motif histogram ("how many triangles, how
// many 4-paths, ...") that graphlet and network-motif analyses consume.
//
// Parallelization follows the shared-memory subgraph-enumeration literature
// (arXiv:1705.09358): ESU's per-root subtrees are independent, so root
// vertices are dealt to a worker pool in chunks claimed off one atomic
// counter (work-stealing-friendly: a worker that drew cheap roots just
// claims the next chunk), and every worker walks its subtrees over the
// graph's own CSR adjacency and shares one canonical-form memo cache. Each
// worker keeps its own scratch (a one-byte slot mask per vertex, per-depth
// extension lists, a count per raw adjacency code), so the steady-state
// enumeration path allocates nothing and takes no lock; the only shared
// writes are the memo cache's first-sight inserts when a worker classifies
// its raw codes.
package esu

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"psgl/internal/graph"
	"psgl/internal/obs"
)

// Options tunes a census run. The zero value is ready to use.
type Options struct {
	// Workers is the worker-pool size; 0 means 4 (the PSgL engine's default).
	Workers int
	// Cache is the canonical-form memo cache to use (shared across runs by a
	// resident server). nil builds a fresh cache for this run. Its K() must
	// equal the census k.
	Cache *CanonCache
	// Observer receives end-of-run census counters (subgraphs, cache
	// hits/misses). nil disables observability.
	Observer *obs.Observer
}

// MotifCount is one isomorphism class of the census histogram.
type MotifCount struct {
	// Code is the class's canonical adjacency code (upper-triangle bits).
	Code uint32 `json:"code"`
	// Motif is Code rendered in the pattern DSL's edges(...) form.
	Motif string `json:"motif"`
	// Count is the number of connected induced k-subgraphs in the class.
	Count int64 `json:"count"`
}

// Result is the outcome of a census run.
type Result struct {
	// K is the subgraph size counted.
	K int `json:"k"`
	// Subgraphs is the total number of connected k-subgraphs enumerated
	// (each exactly once; the sum of every class count).
	Subgraphs int64 `json:"subgraphs"`
	// Classes is the motif histogram, largest class first (ties by code).
	Classes []MotifCount `json:"classes"`
	// CacheHits and CacheMisses count canonical-form memo cache lookups
	// across all workers. On a fresh cache, misses is exactly the number of
	// distinct raw adjacency codes seen.
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	// Workers is the pool size used.
	Workers int `json:"workers"`
	// Wall is the enumeration wall time.
	Wall time.Duration `json:"wall_ns"`
}

// CacheHitRate returns the memo cache hit fraction, 0 when nothing was
// enumerated.
func (r *Result) CacheHitRate() float64 {
	total := r.CacheHits + r.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(r.CacheHits) / float64(total)
}

// Histogram returns the census as a canonical-code → count map.
func (r *Result) Histogram() map[uint32]int64 {
	h := make(map[uint32]int64, len(r.Classes))
	for _, c := range r.Classes {
		h[c.Code] = c.Count
	}
	return h
}

// Count runs a k-motif census of g with background context.
func Count(g *graph.Graph, k int, opts Options) (*Result, error) {
	return CountContext(context.Background(), g, k, opts)
}

// CountContext runs a k-motif census of g, honoring ctx cancellation between
// root subtrees.
func CountContext(ctx context.Context, g *graph.Graph, k int, opts Options) (*Result, error) {
	if k < MinK || k > MaxK {
		return nil, fmt.Errorf("esu: census size k=%d out of range [%d,%d]", k, MinK, MaxK)
	}
	cache := opts.Cache
	if cache == nil {
		cache = NewCanonCache(k)
	} else if cache.K() != k {
		return nil, fmt.Errorf("esu: memo cache is for k=%d, census wants k=%d", cache.K(), k)
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = 4
	}
	n := g.NumVertices()
	if workers > n && n > 0 {
		workers = n
	}
	// ~32 claims per worker keeps the claim counter cold while letting a
	// worker stuck on a hub's deep subtree shed the rest of the range.
	chunk := max(n/(workers*32), 1)

	start := time.Now()
	var next atomic.Int64 // next unclaimed root; workers claim [lo, lo+chunk)
	claim := func() int { return int(next.Add(int64(chunk))) - chunk }
	ws := make([]*walker, workers)
	var wg sync.WaitGroup
	for wi := range ws {
		w := newWalker(g, k)
		ws[wi] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for lo := claim(); lo < n; lo = claim() {
				for v := lo; v < min(lo+chunk, n); v++ {
					if ctx.Err() != nil {
						return
					}
					w.walk(graph.VertexID(v))
				}
			}
			w.classify(cache)
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	res := &Result{K: k, Workers: workers}
	merged := make(map[uint32]int64)
	for _, w := range ws {
		res.Subgraphs += w.total
		res.CacheHits += w.hits
		res.CacheMisses += w.misses
		for code, cnt := range w.counts {
			merged[code] += cnt
		}
	}
	res.Classes = make([]MotifCount, 0, len(merged))
	for code, cnt := range merged {
		res.Classes = append(res.Classes, MotifCount{Code: code, Motif: MotifDSL(k, code), Count: cnt})
	}
	sort.Slice(res.Classes, func(i, j int) bool {
		if res.Classes[i].Count != res.Classes[j].Count {
			return res.Classes[i].Count > res.Classes[j].Count
		}
		return res.Classes[i].Code < res.Classes[j].Code
	})
	res.Wall = time.Since(start)
	opts.Observer.AddCensus(res.Subgraphs, res.CacheHits, res.CacheMisses)
	return res, nil
}

// walker is one worker's enumeration state. Its scratch is sized at
// construction or grows to the largest extension list seen; a warm walker
// allocates nothing (pinned by TestCensusSteadyStateAllocs).
type walker struct {
	g    *graph.Graph
	k    int
	root graph.VertexID

	// adj[x] is x's slot mask: bit i is set while x is a neighbour of the
	// subgraph's i-th vertex. Only vertices above the root are marked — no
	// other vertex can join or be probed — so a candidate x is in
	// V_sub ∪ N(V_sub) iff adj[x] != 0.
	adj []uint8
	// ext[d] holds the extension list of the subgraph with d+1 vertices
	// (d >= 1; the root's is a suffix of its CSR row), and prefix[d] that
	// subgraph's adjacency code.
	ext    [MaxK][]graph.VertexID
	prefix [MaxK]uint32
	// tbl[d][m] is the code contribution of a vertex placed in slot d whose
	// slot mask is m: the pair bits of {i, d} for every bit i of m.
	tbl [MaxK][1 << (MaxK - 1)]uint32
	// raw counts the subgraphs found per raw adjacency code; classify folds
	// it into counts, the histogram by canonical code.
	raw []int64

	counts              map[uint32]int64
	total, hits, misses int64
}

func newWalker(g *graph.Graph, k int) *walker {
	w := &walker{
		g:   g,
		k:   k,
		adj: make([]uint8, g.NumVertices()),
		raw: make([]int64, 1<<codeBits(k)),
	}
	for d := 1; d < k; d++ {
		for m := 0; m < 1<<d; m++ {
			for i := 0; i < d; i++ {
				if m&(1<<i) != 0 {
					w.tbl[d][m] |= 1 << uint(pairIdx[k][i][d])
				}
			}
		}
	}
	return w
}

// above returns the part of u's row above the current root.
func (w *walker) above(u graph.VertexID) []graph.VertexID {
	row := w.g.Neighbors(u)
	return row[graph.LowerBound(row, w.root+1):]
}

// toggle flips slot bit d on every vertex of row: set when the slot's vertex
// is placed, clear again when it is taken back.
func (w *walker) toggle(row []graph.VertexID, d int) {
	bit := uint8(1) << d
	for _, x := range row {
		w.adj[x] ^= bit
	}
}

// walk enumerates every connected k-subgraph whose minimum vertex is v —
// ESU's root rule: only vertices greater than v may ever join, so each
// subgraph is generated exactly once, from its minimum vertex.
func (w *walker) walk(v graph.VertexID) {
	w.root = v
	ext := w.above(v)
	if len(ext) == 0 {
		return
	}
	w.toggle(ext, 0)
	w.extend(1, ext)
	w.toggle(ext, 0)
}

// extend places the vertex at slot d (slots 0..d-1 are filled on entry),
// drawing from ext.
// ESU: take each candidate u in turn, dropping it and the candidates before
// it from the child's list, and extend that list with u's exclusive
// neighbours N(u) \ (V_sub ∪ N(V_sub)) above the root.
func (w *walker) extend(d int, ext []graph.VertexID) {
	pre, tbl := w.prefix[d-1], &w.tbl[d]
	if d == w.k-1 {
		// Last slot: every candidate completes one subgraph, and its slot
		// mask already names its edges into the rest.
		for _, u := range ext {
			w.raw[pre|tbl[w.adj[u]]]++
		}
		return
	}
	for i, u := range ext {
		row := w.above(u)
		child := append(w.ext[d][:0], ext[i+1:]...)
		for _, x := range row {
			if w.adj[x] == 0 {
				child = append(child, x)
			}
		}
		w.ext[d] = child
		if len(child) == 0 {
			continue
		}
		w.prefix[d] = pre | tbl[w.adj[u]]
		w.toggle(row, d)
		w.extend(d+1, child)
		w.toggle(row, d)
	}
}

// classify canonicalizes each raw code the walker found through the shared
// memo cache, once per code, and sums the raw counts into its histogram. A
// code's first lookup anywhere is the cache's one miss for it; every other
// subgraph with that code counts as a hit, as if each had been looked up.
func (w *walker) classify(cache *CanonCache) {
	w.counts = make(map[uint32]int64)
	for code, n := range w.raw {
		if n == 0 {
			continue
		}
		canon, hit := cache.Lookup(uint32(code))
		w.hits += n
		if !hit {
			w.hits--
			w.misses++
		}
		w.counts[canon] += n
		w.total += n
	}
}
