// Package serve is the resident query service of the PSgL stack: a
// long-lived server that loads the data graph once and answers concurrent
// subgraph-listing queries over HTTP/JSON, amortizing graph residency and
// per-pattern planning (automorphism breaking, initial-vertex selection)
// across queries the way serving-oriented successors of the paper (DDSL,
// Ren et al.) do.
//
// The pieces:
//
//   - Pattern DSL (internal/pattern): queries name patterns as `cycle(4)`,
//     `clique(4)`, `edges(0-1,1-2,2-0)`, or catalog names; the canonical
//     form keys the plan cache so spelling variants share one plan.
//   - Plan cache (plancache.go): symmetry breaking, initial-pattern-vertex
//     selection, and the pattern edge list are computed exactly once per
//     canonical pattern and reused by every later query.
//   - Admission control (admission.go): a configurable number of in-flight
//     queries, a bounded FIFO wait queue, 429 on overflow, per-query
//     deadlines threaded into the engine's RunContext, and graceful drain.
//   - Result streaming: embeddings stream as NDJSON with a `limit` that
//     terminates the enumeration early (Options.MaxResults), plus a
//     count-only fast path.
//
// Endpoints: POST/GET /query, /healthz, /stats, and the observability debug
// mux (/debug/obs, /debug/pprof/*, /debug/vars) following the most recent
// query's tagged Observer.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"psgl/internal/bsp"
	"psgl/internal/core"
	"psgl/internal/graph"
	"psgl/internal/obs"
	"psgl/internal/pattern"
	"psgl/internal/stats"
)

// Config tunes a Server. The zero value is valid; see the field defaults.
type Config struct {
	// Workers is the engine worker count per query. 0 means 4.
	Workers int
	// Seed drives the engine's partitioning of the graph across workers.
	// Fixed per server so repeated queries are reproducible.
	Seed int64
	// MaxInFlight is the number of queries executing concurrently. 0 means 2.
	MaxInFlight int
	// MaxQueue is the bounded FIFO wait queue behind the execution slots;
	// a query arriving with the queue full is rejected with 429. 0 means 8.
	// Negative means no queue (reject as soon as all slots are busy).
	MaxQueue int
	// DefaultDeadline bounds queries that do not pass deadline_ms. 0 means
	// 30s.
	DefaultDeadline time.Duration
	// MaxDeadline caps client-supplied deadlines. 0 means 5m.
	MaxDeadline time.Duration
	// TraceSink, when non-nil, receives every query's trace events; each
	// query runs under its own Observer tagged with the query's trace ID
	// (q1, q2, ...). Nil disables tracing.
	TraceSink obs.Sink
	// CheckpointEvery > 0 checkpoints every query's BSP state at every
	// Nth barrier, enabling in-run recovery and checkpoint-resume retry.
	CheckpointEvery int
	// MaxRecoveries bounds in-run checkpoint restores per query run.
	MaxRecoveries int
	// QueryRetries is how many times a failed count query is re-run,
	// resuming from its last barrier checkpoint (CheckpointEvery > 0) or
	// from scratch. 0 disables.
	QueryRetries int
	// CompactThreshold folds the mutation overlay's patch set into a fresh
	// CSR base once it holds this many edges, bounding the per-Snapshot
	// rebuild overhead of a long mutation history. 0 means 1024; negative
	// disables compaction.
	CompactThreshold int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 2
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 8
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 5 * time.Minute
	}
	if c.CompactThreshold == 0 {
		c.CompactThreshold = 1024
	}
	return c
}

// graphState is one epoch's immutable serving snapshot. /update publishes a
// new graphState atomically, so queries pin one consistent epoch for their
// whole run while mutations proceed — readers and the mutation path never
// hold a lock against each other. Everything a query reads about the graph
// hangs off the graphData it points to, so the graph, the plans selected
// against it and the engine state built over it can never come from
// different epochs.
type graphState struct {
	*graphData
	epoch uint64
}

// graphData is one edge set and everything derived from it: the CSR graph,
// its fingerprint, the plan cache (a plan's initial-vertex selection is
// computed against one graph's degree distribution), the engine's
// graph-scoped state and the census engine's results. An effective /update batch
// publishes a fresh graphData — which is the invalidation of all of it, and
// an old epoch's derived state dies with the last query that pinned it — while
// an all-noop batch republishes the same one under the next epoch number.
type graphData struct {
	g     *graph.Graph
	fp    uint64
	plans *planCache
	// since is the epoch this edge set was published at.
	since uint64

	// base is the compaction base the edge set belongs to, and added and
	// removed the overlay's patch from base.g to g at publish (both nil when g
	// is base.g).
	base           *prepBase
	added, removed [][2]graph.VertexID
	// prep is the engine's graph-scoped state (core.Prepared), made by the
	// first query of the epoch that runs the engine — never at publish, which
	// would charge every update for state the next update may discard: the
	// base's own state, or a patch of it.
	prepOnce sync.Once
	prep     atomic.Pointer[core.Prepared]

	census epochCensus
}

// prepBase is a compaction base of the overlay — the graph the server
// started with, or one a compaction folded the patch into — and the engine
// state built over it, once, by core.Prepare: every later epoch up to the
// next compaction patches its state from this one (core.Prepared.Patch), in
// the base's vertex order. It holds nothing else of the base epoch's, so that
// epoch's plans and census state die with it as usual.
type prepBase struct {
	g     *graph.Graph
	since uint64 // the epoch the base was published at
	once  sync.Once
	prep  atomic.Pointer[core.Prepared]
}

func newGraphData(g *graph.Graph, epoch uint64, base *prepBase, added, removed [][2]graph.VertexID) *graphData {
	return &graphData{
		g:       g,
		fp:      g.Fingerprint(),
		plans:   newPlanCache(stats.FromHistogram(g.DegreeHistogram())),
		since:   epoch,
		base:    base,
		added:   added,
		removed: removed,
	}
}

// prepared returns the epoch's graph-scoped engine state for a run under
// opts, making it on first use; concurrent first queries share it. The
// compaction base's state is built by core.Prepare, once, for the server's
// configured worker count; any other epoch's is a patch of it. A query that
// overrides ?workers= gets its own owner array over the same indexes, held
// for that query only, so varying worker counts never multiply the resident
// state. Each call counts once in /stats: as a build if it ran core.Prepare
// (for its epoch or, first, for the base its epoch patches), else as a patch
// if it patched, else as a shared use.
func (s *Server) prepared(d *graphData, opts core.Options) *core.Prepared {
	built, patched := false, false
	d.prepOnce.Do(func() {
		b := d.base
		b.once.Do(func() {
			built = true
			start := time.Now()
			o := opts
			o.Workers = s.cfg.Workers
			b.prep.Store(core.Prepare(b.g, o))
			s.prepLastBuildNS.Store(time.Since(start).Nanoseconds())
		})
		pr := b.prep.Load()
		if d.g != b.g {
			patched = true
			start := time.Now()
			pr = pr.Patch(d.g, d.added, d.removed)
			s.prepLastPatchNS.Store(time.Since(start).Nanoseconds())
		}
		d.prep.Store(pr)
	})
	switch {
	case built:
		s.prepBuilds.Add(1)
	case patched:
		s.prepPatches.Add(1)
	default:
		s.prepShared.Add(1)
	}
	return d.prep.Load().ForWorkers(opts.Workers)
}

// Server is a resident subgraph-listing query service over one data graph.
// Create one with New, mount Handler on an http.Server, and Drain on
// shutdown.
type Server struct {
	cfg   Config
	adm   *admission
	start time.Time

	// state is the current serving epoch (graph + fingerprint + plan cache);
	// queries load it once and keep that snapshot for their whole run.
	state atomic.Pointer[graphState]

	// The mutation plane: overlay and its derived counters. mutMu serializes
	// /update batches end to end (overlay mutation, delta enumeration,
	// state publication); the mirrored atomics keep /stats from having to
	// take it.
	mutMu          sync.Mutex
	overlay        *graph.Overlay
	mutBatches     atomic.Int64
	mutAdded       atomic.Int64
	mutRemoved     atomic.Int64
	mutNoops       atomic.Int64
	mutPatch       atomic.Int64
	mutCompactions atomic.Int64
	mutEdgeFP      atomic.Uint64
	deltaGained    atomic.Int64
	deltaLost      atomic.Int64
	deltaRuns      atomic.Int64

	// Standing-query subscriptions (POST /subscribe), fanned out to by the
	// update path and closed on Drain.
	subMu  sync.Mutex
	subs   map[int64]*subscription
	subSeq int64

	drainMu  sync.Mutex
	draining bool
	inflight sync.WaitGroup

	qid     atomic.Int64
	lastObs atomic.Pointer[obs.Observer]

	// census holds the motif-census state that outlives an epoch (per-k
	// canonical-form caches, counters); the per-k results belong to the
	// epoch's graphData.
	census censusState

	// Graph-scoped engine state counters for /stats: queries that built, that
	// patched and that found their epoch's state already made, and the last
	// build's and patch's cost.
	prepBuilds      atomic.Int64
	prepPatches     atomic.Int64
	prepShared      atomic.Int64
	prepLastBuildNS atomic.Int64
	prepLastPatchNS atomic.Int64

	// Query outcome counters for /stats.
	completed        atomic.Int64
	rejected         atomic.Int64
	deadlineExceeded atomic.Int64
	failed           atomic.Int64
	embeddingsSent   atomic.Int64
	queryRetries     atomic.Int64

	// hookQueryAdmitted, when non-nil, runs while the query holds an
	// execution slot, before the engine starts — a test seam for pinning
	// queries in flight deterministically.
	hookQueryAdmitted func()
	// testExchange, when non-nil, overrides the engine's message exchange
	// — a test seam for injecting scheduled faults into queries.
	testExchange bsp.ExchangeFactory
}

// New builds a Server over g. The degree distribution of the first epoch's
// graph (for initial-vertex selection) and its fingerprint are computed here;
// the engine's graph-scoped state waits for the first query.
func New(g *graph.Graph, cfg Config) (*Server, error) {
	if g == nil {
		return nil, fmt.Errorf("serve: nil graph")
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		adm:   newAdmission(cfg.MaxInFlight, cfg.MaxQueue),
		start: time.Now(),
		subs:  make(map[int64]*subscription),
	}
	s.state.Store(&graphState{graphData: newGraphData(g, 0, &prepBase{g: g}, nil, nil)})
	s.overlay = graph.NewOverlay(g)
	s.mutEdgeFP.Store(s.overlay.Fingerprint())
	return s, nil
}

// Handler returns the server's HTTP mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/update", s.handleUpdate)
	mux.HandleFunc("/subscribe", s.handleSubscribe)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/stats", s.handleStats)
	mux.Handle("/debug/", obs.HandlerProvider(func() *obs.Observer { return s.lastObs.Load() }))
	return mux
}

// Drain stops admitting queries (healthz turns 503, /query answers 503) and
// waits for in-flight queries to finish or ctx to expire — the SIGTERM path.
func (s *Server) Drain(ctx context.Context) error {
	s.drainMu.Lock()
	s.draining = true
	s.drainMu.Unlock()
	s.closeSubscriptions()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Draining reports whether Drain has been initiated.
func (s *Server) Draining() bool {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	return s.draining
}

// beginQuery registers an in-flight query unless the server is draining.
func (s *Server) beginQuery() bool {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	if s.draining {
		return false
	}
	s.inflight.Add(1)
	return true
}

func (s *Server) endQuery() { s.inflight.Done() }

// queryParams is one parsed /query request.
type queryParams struct {
	patternSrc string
	limit      int64
	deadline   time.Duration
	countOnly  bool
	workers    int
}

func (s *Server) parseQuery(r *http.Request) (queryParams, error) {
	q := queryParams{workers: s.cfg.Workers, deadline: s.cfg.DefaultDeadline}
	q.patternSrc = r.FormValue("pattern")
	if q.patternSrc == "" {
		return q, fmt.Errorf("missing required parameter 'pattern'")
	}
	if v := r.FormValue("limit"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			return q, fmt.Errorf("bad limit %q (want a nonnegative integer)", v)
		}
		q.limit = n
	}
	if v := r.FormValue("deadline_ms"); v != "" {
		ms, err := strconv.ParseInt(v, 10, 64)
		if err != nil || ms <= 0 {
			return q, fmt.Errorf("bad deadline_ms %q (want a positive integer)", v)
		}
		// Compared before the product: a huge ms overflows a Duration.
		q.deadline = s.cfg.MaxDeadline
		if ms <= s.cfg.MaxDeadline.Milliseconds() {
			q.deadline = time.Duration(ms) * time.Millisecond
		}
	}
	if v := r.FormValue("count_only"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return q, fmt.Errorf("bad count_only %q (want a boolean)", v)
		}
		q.countOnly = b
	}
	if v := r.FormValue("workers"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > 256 {
			return q, fmt.Errorf("bad workers %q (want 1..256)", v)
		}
		q.workers = n
	}
	return q, nil
}

// jsonError writes a one-object JSON error response.
func jsonError(w http.ResponseWriter, status int, format string, a ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, a...)})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		jsonError(w, http.StatusMethodNotAllowed, "use GET or POST")
		return
	}
	if !s.beginQuery() {
		jsonError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	defer s.endQuery()

	params, err := s.parseQuery(r)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	censusK, isCensus, err := pattern.ParseCensus(params.patternSrc)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Pin this query's serving epoch: graph, fingerprint, and plan cache stay
	// consistent for the whole run even if an /update lands mid-query.
	st := s.state.Load()
	var plan *Plan
	if !isCensus {
		p, err := pattern.Parse(params.patternSrc)
		if err != nil {
			jsonError(w, http.StatusBadRequest, "%v", err)
			return
		}
		plan = st.plans.get(p)
	}

	ctx, cancel := context.WithTimeout(r.Context(), params.deadline)
	defer cancel()

	// Admission: an execution slot now, a bounded FIFO wait, or a fast 429.
	if err := s.adm.acquire(ctx.Done()); err != nil {
		s.rejected.Add(1)
		if errors.Is(err, errQueueFull) {
			jsonError(w, http.StatusTooManyRequests, "%v", err)
			return
		}
		if ctx.Err() != nil && r.Context().Err() == nil {
			s.deadlineExceeded.Add(1)
			jsonError(w, http.StatusGatewayTimeout, "deadline expired while queued")
			return
		}
		jsonError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	defer s.adm.release()
	if s.hookQueryAdmitted != nil {
		s.hookQueryAdmitted()
	}

	traceID := fmt.Sprintf("q%d", s.qid.Add(1))
	observer := obs.New(s.cfg.TraceSink)
	observer.SetTag(traceID)
	s.lastObs.Store(observer)

	if isCensus {
		// A census holds its admission slot like any other query.
		s.serveCensus(ctx, w, st.graphData, censusK, params, observer, traceID, time.Now())
		return
	}

	opts := core.NewOptions()
	opts.Workers = params.workers
	opts.Seed = s.cfg.Seed
	opts.Observer = observer
	// The plan-reuse path: the cached pattern already carries its
	// symmetry-breaking orders, and the initial vertex was selected once
	// against this graph.
	opts.PlannedPattern = true
	opts.InitialVertex = plan.InitialVertex
	opts.Exchange = s.testExchange
	// A stream runs pipelined: its worker takes its own newest work first,
	// so a limit is met in work proportional to the pattern's depth instead
	// of a full breadth-first level. A count runs strict, which costs less
	// when the whole enumeration has to be walked anyway.
	opts.AsyncExchange = !params.countOnly
	if s.cfg.CheckpointEvery > 0 {
		opts.CheckpointEvery = s.cfg.CheckpointEvery
		opts.CheckpointStore = bsp.NewMemCheckpointStore()
		opts.MaxRecoveries = s.cfg.MaxRecoveries
	}

	start := time.Now()
	pr := s.prepared(st.graphData, opts)
	if params.countOnly {
		s.serveCount(ctx, w, pr, plan, opts, traceID, start)
		return
	}
	s.serveStream(ctx, w, pr, plan, opts, params.limit, traceID, start)
}

// countResponse is the count-only fast path's response body.
type countResponse struct {
	TraceID   string  `json:"trace_id"`
	Canonical string  `json:"canonical"`
	Pattern   string  `json:"pattern"`
	Count     int64   `json:"count"`
	Truncated bool    `json:"truncated,omitempty"`
	WallMS    float64 `json:"wall_ms"`
}

func (s *Server) serveCount(ctx context.Context, w http.ResponseWriter, pr *core.Prepared, plan *Plan, opts core.Options, traceID string, start time.Time) {
	res, err := pr.RunContext(ctx, plan.Pattern, opts)
	// Query-level retry: a failed count run re-admits, resuming from its
	// last barrier checkpoint when one exists (counts stay exact across a
	// resume — the engine's exactly-once accounting). Deadline expiry is
	// not retried; the client asked for the bound.
	for attempt := 0; err != nil && ctx.Err() == nil && attempt < s.cfg.QueryRetries; attempt++ {
		s.queryRetries.Add(1)
		if opts.Observer != nil {
			opts.Observer.AddQueryRetry()
		}
		opts.ResumeFrom = opts.CheckpointStore
		res, err = pr.RunContext(ctx, plan.Pattern, opts)
	}
	if err != nil {
		if ctx.Err() != nil {
			s.deadlineExceeded.Add(1)
			jsonError(w, http.StatusGatewayTimeout, "query canceled: %v", ctx.Err())
			return
		}
		s.failed.Add(1)
		jsonError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.completed.Add(1)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(countResponse{
		TraceID:   traceID,
		Canonical: plan.Key,
		Pattern:   plan.Pattern.Name(),
		Count:     res.Count,
		Truncated: res.Truncated,
		WallMS:    float64(time.Since(start).Microseconds()) / 1000,
	})
}

// streamTrailer closes an NDJSON stream: the final line after the embedding
// lines.
type streamTrailer struct {
	Done      bool    `json:"done"`
	TraceID   string  `json:"trace_id"`
	Canonical string  `json:"canonical"`
	Count     int64   `json:"count"`
	Truncated bool    `json:"truncated,omitempty"`
	WallMS    float64 `json:"wall_ms"`
	Error     string  `json:"error,omitempty"`
}

func (s *Server) serveStream(ctx context.Context, w http.ResponseWriter, pr *core.Prepared, plan *Plan, opts core.Options, limit int64, traceID string, start time.Time) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)

	var mu sync.Mutex // serializes writes from concurrent worker callbacks
	var emitted atomic.Int64
	type line struct {
		Embedding []graph.VertexID `json:"embedding"`
	}
	enc := json.NewEncoder(w)
	opts.MaxResults = limit
	opts.OnInstance = func(mapping []graph.VertexID) {
		if limit > 0 && emitted.Add(1) > limit {
			// Workers race past the cap before the engine's early stop
			// propagates; surplus instances are dropped here so the stream
			// honors the limit exactly.
			return
		} else if limit == 0 {
			emitted.Add(1)
		}
		mu.Lock()
		enc.Encode(line{Embedding: mapping})
		if flusher != nil {
			flusher.Flush()
		}
		mu.Unlock()
	}

	res, err := pr.RunContext(ctx, plan.Pattern, opts)
	trailer := streamTrailer{
		Done:      true,
		TraceID:   traceID,
		Canonical: plan.Key,
		WallMS:    float64(time.Since(start).Microseconds()) / 1000,
	}
	n := emitted.Load()
	if limit > 0 && n > limit {
		n = limit
	}
	trailer.Count = n
	switch {
	case err != nil && ctx.Err() != nil:
		s.deadlineExceeded.Add(1)
		trailer.Truncated = true
		trailer.Error = fmt.Sprintf("query canceled: %v", ctx.Err())
	case err != nil:
		s.failed.Add(1)
		trailer.Error = err.Error()
	default:
		s.completed.Add(1)
		trailer.Truncated = res.Truncated
	}
	s.embeddingsSent.Add(n)
	mu.Lock()
	enc.Encode(trailer)
	if flusher != nil {
		flusher.Flush()
	}
	mu.Unlock()
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]string{"status": "draining"})
		return
	}
	json.NewEncoder(w).Encode(map[string]string{"status": "ok"})
}

// StatsResponse is the /stats document.
type StatsResponse struct {
	Graph struct {
		Vertices    int    `json:"vertices"`
		Edges       int64  `json:"edges"`
		Fingerprint string `json:"fingerprint"`
		// Epoch is the mutation epoch of the serving snapshot: the number of
		// accepted /update batches folded into the graph being served.
		Epoch uint64 `json:"epoch"`
	} `json:"graph"`
	UptimeS float64 `json:"uptime_s"`
	Plans   struct {
		Entries []PlanStats `json:"entries"`
		Hits    int64       `json:"hits"`
		Misses  int64       `json:"misses"`
	} `json:"plan_cache"`
	Admission struct {
		MaxInFlight int `json:"max_inflight"`
		MaxQueue    int `json:"max_queue"`
		InFlight    int `json:"inflight"`
		Waiting     int `json:"waiting"`
	} `json:"admission"`
	Queries struct {
		Completed        int64 `json:"completed"`
		Rejected         int64 `json:"rejected"`
		DeadlineExceeded int64 `json:"deadline_exceeded"`
		Failed           int64 `json:"failed"`
		EmbeddingsSent   int64 `json:"embeddings_sent"`
		Retries          int64 `json:"retries"`
	} `json:"queries"`
	// Prepared reports the engine's graph-scoped state (the graph relabelled
	// by degree rank, hub bitmap, owner array): built once per
	// compaction base, patched from it once per later graph epoch, each by the
	// first query of its epoch that runs the engine, and shared by the rest.
	Prepared PreparedStats `json:"prepared"`
	// Census reports the motif-census verb's caches: queries served, per-k
	// result-cache hits, and the canonical-form memo cache hit rate.
	Census CensusStats `json:"census"`
	// Mutations reports the dynamic-graph plane: accepted /update batches,
	// effective edge changes, overlay patch/compaction state, standing-query
	// subscriptions, and the cumulative delta-enumeration totals.
	Mutations MutationStats `json:"mutations"`
	Draining  bool          `json:"draining"`
}

// PreparedStats is the /stats prepared section. Every engine query counts in
// exactly one of Builds, Patches and SharedUses.
type PreparedStats struct {
	// Builds counts core.Prepare calls over the server's life (at most one
	// per compaction base), each made by a query of an epoch that needed the
	// base's state; Patches counts queries that patched their epoch's state
	// from a base state already built (at most one per epoch); SharedUses
	// counts queries that found their epoch's state already made.
	Builds     int64 `json:"builds"`
	Patches    int64 `json:"patches"`
	SharedUses int64 `json:"shared_uses"`
	// LastBuildMS and LastPatchMS are the most recent build's and patch's
	// durations.
	LastBuildMS float64 `json:"last_build_ms"`
	LastPatchMS float64 `json:"last_patch_ms"`
	// Bytes is what is resident for the serving epoch: its base's state and,
	// when the epoch is not the base, its patched state, counting the arrays
	// the two share once (0 until something is built). Epoch is the epoch the
	// serving edge set was published at — noop batches advance graph.epoch
	// past it without a rebuild — and BaseEpoch the epoch its compaction base
	// was.
	Bytes     int64  `json:"bytes"`
	Epoch     uint64 `json:"epoch"`
	BaseEpoch uint64 `json:"base_epoch"`
}

// Stats assembles the /stats document (also used by tests directly).
func (s *Server) Stats() StatsResponse {
	var sr StatsResponse
	st := s.state.Load()
	sr.Graph.Vertices = st.g.NumVertices()
	sr.Graph.Edges = st.g.NumEdges()
	sr.Graph.Fingerprint = fmt.Sprintf("%016x", st.fp)
	sr.Graph.Epoch = st.epoch
	sr.UptimeS = time.Since(s.start).Seconds()
	sr.Plans.Entries, sr.Plans.Hits, sr.Plans.Misses = st.plans.snapshot()
	sr.Admission.MaxInFlight = s.cfg.MaxInFlight
	sr.Admission.MaxQueue = s.cfg.MaxQueue
	sr.Admission.InFlight, sr.Admission.Waiting = s.adm.load()
	sr.Queries.Completed = s.completed.Load()
	sr.Queries.Rejected = s.rejected.Load()
	sr.Queries.DeadlineExceeded = s.deadlineExceeded.Load()
	sr.Queries.Failed = s.failed.Load()
	sr.Queries.EmbeddingsSent = s.embeddingsSent.Load()
	sr.Queries.Retries = s.queryRetries.Load()
	sr.Prepared = PreparedStats{
		Builds:      s.prepBuilds.Load(),
		Patches:     s.prepPatches.Load(),
		SharedUses:  s.prepShared.Load(),
		LastBuildMS: float64(s.prepLastBuildNS.Load()) / 1e6,
		LastPatchMS: float64(s.prepLastPatchNS.Load()) / 1e6,
		Epoch:       st.since,
		BaseEpoch:   st.base.since,
	}
	if base := st.base.prep.Load(); base != nil {
		sr.Prepared.Bytes = base.SizeBytes()
		if pr := st.prep.Load(); pr != nil && pr != base {
			sr.Prepared.Bytes += pr.SizeBytesBeside(base)
		}
	}
	sr.Census = s.census.stats()
	sr.Mutations = s.mutationStats(st.epoch)
	sr.Draining = s.Draining()
	return sr
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.Stats())
}
