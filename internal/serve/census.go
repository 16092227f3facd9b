package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"psgl/internal/esu"
	"psgl/internal/obs"
)

// The census(k) verb: where /query?pattern=<dsl> lists one pattern's
// embeddings through the PSgL engine, /query?pattern=census(k) routes to the
// ESU motif-census engine (internal/esu) and answers with the full k-motif
// histogram. Census queries pass through the same admission control as
// listing queries — a census is the heavier workload, so it must not bypass
// the in-flight cap.
//
// The census walks the epoch's own CSR graph, so it builds nothing per
// epoch. Two layers amortize repeat censuses on the resident graph:
//   - one canonical-form memo cache per k persists across queries and across
//     epochs (a canonical form depends only on a k-subgraph's own structure,
//     never on which resident graph it was found in), so a repeat census runs
//     at a 100% canon-cache hit rate;
//   - the Result itself is cached per k for the epoch (its graph is
//     immutable), so a repeat census(k) answers without enumerating at all.
//
// The results describe one edge set, so they live in the epoch's graphData,
// reached only through the graphState a query pinned: a census that was
// admitted under one epoch and ran after the next was published reads and
// fills the epoch it pinned, never the current one.

// censusState is the server-wide half of the census machinery.
type censusState struct {
	mu     sync.Mutex
	caches map[int]*esu.CanonCache

	// Cumulative counters for /stats.
	queries     atomic.Int64
	resultHits  atomic.Int64
	canonHits   atomic.Int64
	canonMisses atomic.Int64
}

// epochCensus is one graph epoch's half: the per-k results of that edge set.
type epochCensus struct {
	mu      sync.Mutex
	results map[int]*esu.Result
}

// canonCache returns the server-wide canonical-form memo cache for size k.
func (cs *censusState) canonCache(k int) *esu.CanonCache {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cache, ok := cs.caches[k]
	if !ok {
		if cs.caches == nil {
			cs.caches = make(map[int]*esu.CanonCache)
		}
		cache = esu.NewCanonCache(k)
		cs.caches[k] = cache
	}
	return cache
}

// run executes (or answers from the epoch's cache) a census of d's graph at
// size k. cached reports a result-cache hit. Concurrent first censuses of the
// same k may both enumerate (results are identical; one store wins) — the
// result cache is filled only by completed runs, so a canceled run never
// poisons it.
func (cs *censusState) run(ctx context.Context, d *graphData, k, workers int, observer *obs.Observer) (res *esu.Result, cached bool, err error) {
	cs.queries.Add(1)
	ec := &d.census
	ec.mu.Lock()
	r, ok := ec.results[k]
	ec.mu.Unlock()
	if ok {
		cs.resultHits.Add(1)
		return r, true, nil
	}

	res, err = esu.CountContext(ctx, d.g, k, esu.Options{
		Workers:  workers,
		Cache:    cs.canonCache(k),
		Observer: observer,
	})
	if err != nil {
		return nil, false, err
	}
	cs.canonHits.Add(res.CacheHits)
	cs.canonMisses.Add(res.CacheMisses)
	ec.mu.Lock()
	if ec.results == nil {
		ec.results = make(map[int]*esu.Result)
	}
	ec.results[k] = res
	ec.mu.Unlock()
	return res, false, nil
}

// CensusStats is the census section of /stats.
type CensusStats struct {
	// Queries counts census(k) queries admitted (result-cache hits included).
	Queries int64 `json:"queries"`
	// ResultCacheHits counts censuses answered from the per-k result cache
	// without enumerating.
	ResultCacheHits int64 `json:"result_cache_hits"`
	// CanonHits/CanonMisses aggregate the canonical-form memo cache lookups
	// across every census run on this server.
	CanonHits    int64   `json:"canon_hits"`
	CanonMisses  int64   `json:"canon_misses"`
	CanonHitRate float64 `json:"canon_hit_rate"`
}

func (cs *censusState) stats() CensusStats {
	st := CensusStats{
		Queries:         cs.queries.Load(),
		ResultCacheHits: cs.resultHits.Load(),
		CanonHits:       cs.canonHits.Load(),
		CanonMisses:     cs.canonMisses.Load(),
	}
	if total := st.CanonHits + st.CanonMisses; total > 0 {
		st.CanonHitRate = float64(st.CanonHits) / float64(total)
	}
	return st
}

// censusResponse is the /query?pattern=census(k) response body.
type censusResponse struct {
	TraceID   string            `json:"trace_id"`
	K         int               `json:"k"`
	Subgraphs int64             `json:"subgraphs"`
	Classes   []esu.MotifCount  `json:"classes"`
	Cache     censusCacheReport `json:"canon_cache"`
	Cached    bool              `json:"cached,omitempty"`
	WallMS    float64           `json:"wall_ms"`
}

type censusCacheReport struct {
	Hits    int64   `json:"hits"`
	Misses  int64   `json:"misses"`
	HitRate float64 `json:"hit_rate"`
}

// serveCensus answers a census(k) query. The caller already holds an
// admission slot and the query deadline context.
func (s *Server) serveCensus(ctx context.Context, w http.ResponseWriter, d *graphData, k int, params queryParams, observer *obs.Observer, traceID string, start time.Time) {
	res, cached, err := s.census.run(ctx, d, k, params.workers, observer)
	if err != nil {
		if ctx.Err() != nil {
			s.deadlineExceeded.Add(1)
			jsonError(w, http.StatusGatewayTimeout, "census canceled: %v", ctx.Err())
			return
		}
		s.failed.Add(1)
		jsonError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.completed.Add(1)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(censusResponse{
		TraceID:   traceID,
		K:         res.K,
		Subgraphs: res.Subgraphs,
		Classes:   res.Classes,
		Cache: censusCacheReport{
			Hits:    res.CacheHits,
			Misses:  res.CacheMisses,
			HitRate: res.CacheHitRate(),
		},
		Cached: cached,
		WallMS: float64(time.Since(start).Microseconds()) / 1000,
	})
}
