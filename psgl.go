// Package psgl is a from-scratch Go implementation of PSgL, the parallel
// subgraph listing framework of Shao, Cui, Chen, Ma, Yao & Xu (SIGMOD 2014):
// "Parallel Subgraph Listing in a Large-Scale Graph".
//
// PSgL enumerates every instance of a small unlabeled pattern graph in a
// large unlabeled data graph by pure graph traversal — no join operator.
// Partial subgraph instances are expanded vertex by vertex and routed between
// BSP workers by a distribution strategy, and a degree-based vertex ordering
// breaks pattern automorphisms so every instance is found exactly once. The
// workers of a run share one memory domain, so each checks every closing edge
// of a partial instance exactly where it meets it; the paper's
// vertex-partitioned model, with its bloom-filter edge index and pending
// edges, runs in the experiment harness (see EXPERIMENTS.md).
//
// # Quick start
//
//	g := psgl.GenerateChungLu(100_000, 500_000, 1.8, 42) // or LoadEdgeList
//	res, err := psgl.List(g, psgl.Square(), psgl.NewOptions())
//	if err != nil { ... }
//	fmt.Println(res.Count)
//
// The package also exposes the systems the paper evaluates against —
// the one-round multiway join of Afrati et al., an SGIA-MR-style iterative
// edge join, a PowerGraph-style fixed-order one-hop engine, and centralized
// enumeration — so every table and figure of the paper's evaluation can be
// regenerated (see cmd/psgl-bench and EXPERIMENTS.md).
package psgl

import (
	"context"
	"fmt"
	"io"

	"psgl/internal/afrati"
	"psgl/internal/bsp"
	"psgl/internal/centralized"
	"psgl/internal/core"
	"psgl/internal/delta"
	"psgl/internal/esu"
	"psgl/internal/gen"
	"psgl/internal/graph"
	"psgl/internal/graphchi"
	"psgl/internal/obs"
	"psgl/internal/onehop"
	"psgl/internal/pattern"
	"psgl/internal/serve"
	"psgl/internal/sgia"
	"psgl/internal/stream"
	"strconv"
	"strings"
)

// Core graph types.
type (
	// Graph is an immutable undirected simple data graph in CSR form.
	Graph = graph.Graph
	// GraphBuilder accumulates edges and produces a Graph.
	GraphBuilder = graph.Builder
	// VertexID identifies a data-graph vertex.
	VertexID = graph.VertexID
	// Pattern is a small connected pattern graph, optionally carrying a
	// symmetry-breaking partial order.
	Pattern = pattern.Pattern
)

// PSgL engine configuration and results.
type (
	// Options configures a PSgL run; see NewOptions for defaults.
	Options = core.Options
	// Result is the outcome of a run: instance count, optional instance
	// mappings, and run statistics.
	Result = core.Result
	// Stats carries the run metrics (Gpsi counts, pruning breakdown,
	// per-worker load, makespan).
	Stats = core.Stats
	// Strategy selects the partial-subgraph-instance distribution strategy.
	Strategy = core.Strategy
)

// Distribution strategies (Section 5.1 of the paper).
const (
	StrategyRandom        = core.StrategyRandom
	StrategyRoulette      = core.StrategyRoulette
	StrategyWorkloadAware = core.StrategyWorkloadAware
)

// ErrOutOfMemory reports that a run exceeded Options.MaxIntermediate.
var ErrOutOfMemory = core.ErrOutOfMemory

// NewOptions returns the default configuration: 4 workers, workload-aware
// distribution with α = 0.5, automatic initial-pattern-vertex selection.
func NewOptions() Options { return core.NewOptions() }

// List enumerates all instances of p in g with the PSgL engine.
func List(g *Graph, p *Pattern, opts Options) (*Result, error) {
	return core.Run(g, p, opts)
}

// ListContext is List with cancellation: the run stops at the next message
// boundary once ctx is done, and ctx deadlines bound the exchange's network
// operations; a deadline on ctx is what bounds a run. Combined with the
// Options checkpoint fields (CheckpointEvery/CheckpointStore, ResumeFrom) it
// is the entry point for long enumerations that may be stopped and resumed.
func ListContext(ctx context.Context, g *Graph, p *Pattern, opts Options) (*Result, error) {
	return core.RunContext(ctx, g, p, opts)
}

// Count is List without instance collection, returning only the number of
// instances.
func Count(g *Graph, p *Pattern, opts Options) (int64, error) {
	opts.Collect = false
	res, err := core.Run(g, p, opts)
	if err != nil {
		return 0, err
	}
	return res.Count, nil
}

// NewTCPExchange returns a BSP message exchange that routes every
// inter-worker batch through loopback TCP as binary wire frames; assign it
// to Options.Exchange for distributed-execution realism.
func NewTCPExchange() bsp.ExchangeFactory { return bsp.NewTCPExchangeFactory() }

// Checkpoint and resume (the Giraph-style barrier checkpointing the paper's
// substrate provides, Section 6). See Options for how these compose.
type (
	// ExchangeFactory builds a BSP message exchange; assign one to
	// Options.Exchange.
	ExchangeFactory = bsp.ExchangeFactory
	// CheckpointStore persists barrier snapshots for resume.
	CheckpointStore = bsp.CheckpointStore
	// TCPConfig tunes the TCP exchange's dial/setup/frame deadlines; a
	// deadline that passes ends the run with a timeout error.
	TCPConfig = bsp.TCPConfig
)

// NewTCPExchangeWithConfig is NewTCPExchange with explicit deadlines.
func NewTCPExchangeWithConfig(cfg TCPConfig) ExchangeFactory {
	return bsp.NewTCPExchangeFactoryWithConfig(cfg)
}

// NewMemCheckpointStore returns an in-memory checkpoint store: a stopped run's
// snapshots, for a later run in the same process to resume from.
func NewMemCheckpointStore() CheckpointStore { return bsp.NewMemCheckpointStore() }

// NewFileCheckpointStore returns a directory-backed checkpoint store whose
// snapshots survive the process; pass it as Options.ResumeFrom in a later
// run to continue a stopped enumeration from its last barrier.
func NewFileCheckpointStore(dir string) (CheckpointStore, error) {
	return bsp.NewFileCheckpointStore(dir)
}

// ErrCorruptCheckpoint reports a stored snapshot that failed integrity
// verification (bad magic, checksum mismatch, undecodable payload) or was
// taken by another run (graph, pattern, seeds or worker count differ);
// surfaced wrapped from runs using Options.ResumeFrom, distinguishable with
// errors.Is.
var ErrCorruptCheckpoint = bsp.ErrCorruptCheckpoint

// Observability (internal/obs): per-superstep timings, transport volume,
// checkpoint and resume trace, end-of-run report. Attach an Observer to
// Options.Observer; a nil Observer is a no-op, and with the default NopSink
// the engine's per-message hot path is untouched (no hooks run per message).
type (
	// Observer collects one run's metrics and forwards trace events to a
	// Sink. Its logical counters (Counters, worker loads) match Stats
	// bit-for-bit on clean and resumed runs alike.
	Observer = obs.Observer
	// Sink receives structured trace events.
	Sink = obs.Sink
	// TraceEvent is one structured trace record.
	TraceEvent = obs.Event
	// ObsSnapshot is a point-in-time copy of an Observer's counters.
	ObsSnapshot = obs.Snapshot
)

// NewObserver returns an Observer emitting to sink; nil means the no-op sink.
func NewObserver(sink Sink) *Observer { return obs.New(sink) }

// NewRingSink returns an in-memory sink retaining the last n events.
func NewRingSink(n int) *obs.Ring { return obs.NewRing(n) }

// NewJSONLSink returns a sink writing one JSON event per line to w — the
// trace-file format behind the CLIs' -trace flag.
func NewJSONLSink(w io.Writer) *obs.JSONL { return obs.NewJSONL(w) }

// ServeDebug starts the observability debug server (expvar counters at
// /debug/vars, net/http/pprof at /debug/pprof/, the observer snapshot at
// /debug/obs) on addr and returns the bound address; the CLIs' -pprof-addr
// flag calls this.
func ServeDebug(addr string, o *Observer) (string, error) { return obs.ServeDebug(addr, o) }

// Graph construction.

// NewGraphBuilder creates a builder for a data graph with n vertices.
func NewGraphBuilder(n int) *GraphBuilder { return graph.NewBuilder(n) }

// GraphFromEdges builds a data graph from an explicit edge list.
func GraphFromEdges(n int, edges [][2]VertexID) *Graph { return graph.FromEdges(n, edges) }

// LoadEdgeList parses a SNAP/KONECT-style whitespace edge list.
func LoadEdgeList(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r) }

// SaveEdgeList writes g in the format LoadEdgeList parses.
func SaveEdgeList(w io.Writer, g *Graph) error { return graph.WriteEdgeList(w, g) }

// Synthetic graph generators (deterministic per seed).

// GenerateErdosRenyi returns a G(n, m) random graph.
func GenerateErdosRenyi(n int, m int64, seed int64) *Graph { return gen.ErdosRenyi(n, m, seed) }

// GenerateChungLu returns a power-law graph with ~m edges and degree
// exponent gamma (lower = more skewed).
func GenerateChungLu(n int, m int64, gamma float64, seed int64) *Graph {
	return gen.ChungLu(n, m, gamma, seed)
}

// GenerateBarabasiAlbert returns a preferential-attachment graph with k
// edges per new vertex.
func GenerateBarabasiAlbert(n, k int, seed int64) *Graph { return gen.BarabasiAlbert(n, k, seed) }

// GenerateRMAT returns an R-MAT graph with 2^scale vertices and ~m edges
// using the classic (0.57, 0.19, 0.19, 0.05) quadrant probabilities.
func GenerateRMAT(scale int, m int64, seed int64) *Graph {
	return gen.RMAT(scale, m, 0.57, 0.19, 0.19, 0.05, seed)
}

// GenerateFromSpec parses a compact generator spec and builds the graph:
//
//	"er:N:M"            Erdős–Rényi G(N, M)
//	"chunglu:N:M:GAMMA" power law with exponent GAMMA
//	"ba:N:K"            Barabási–Albert, K edges per vertex
//	"rmat:SCALE:M"      R-MAT with 2^SCALE vertices
//
// This is the format the cmd/psgl and cmd/psgl-gen tools accept.
func GenerateFromSpec(spec string, seed int64) (*Graph, error) {
	parts := strings.Split(spec, ":")
	bad := func() (*Graph, error) {
		return nil, fmt.Errorf(`psgl: bad generator spec %q (want "er:N:M", "chunglu:N:M:GAMMA", "ba:N:K", or "rmat:SCALE:M")`, spec)
	}
	nums := make([]int64, 0, 3)
	for _, s := range parts[1:] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			if parts[0] == "chunglu" && len(nums) == 2 {
				break // third field is the float gamma
			}
			return bad()
		}
		nums = append(nums, v)
	}
	for _, v := range nums {
		if v <= 0 {
			return nil, fmt.Errorf("psgl: bad generator spec %q: sizes must be positive", spec)
		}
	}
	switch parts[0] {
	case "er":
		if len(parts) != 3 || len(nums) != 2 {
			return bad()
		}
		return GenerateErdosRenyi(int(nums[0]), nums[1], seed), nil
	case "chunglu":
		if len(parts) != 4 || len(nums) < 2 {
			return bad()
		}
		gamma, err := strconv.ParseFloat(parts[3], 64)
		if err != nil {
			return bad()
		}
		if gamma <= 0 {
			return nil, fmt.Errorf("psgl: bad generator spec %q: gamma must be positive", spec)
		}
		return GenerateChungLu(int(nums[0]), nums[1], gamma, seed), nil
	case "ba":
		if len(parts) != 3 || len(nums) != 2 {
			return bad()
		}
		return GenerateBarabasiAlbert(int(nums[0]), int(nums[1]), seed), nil
	case "rmat":
		if len(parts) != 3 || len(nums) != 2 {
			return bad()
		}
		if nums[0] > 30 {
			return nil, fmt.Errorf("psgl: bad generator spec %q: rmat scale must be <= 30", spec)
		}
		return GenerateRMAT(int(nums[0]), nums[1], seed), nil
	}
	return bad()
}

// Pattern construction.

// NewPattern builds a connected pattern graph from an edge list over
// vertices 0..n-1. Symmetry is broken automatically by List/Count, so the
// pattern can be supplied without a partial order.
func NewPattern(name string, n int, edges [][2]int) (*Pattern, error) {
	return pattern.New(name, n, edges)
}

// Catalog patterns (Figure 4 of the paper), automorphisms already broken.

// Triangle returns PG1, the 3-clique.
func Triangle() *Pattern { return pattern.PG1() }

// Square returns PG2, the 4-cycle of Figure 1.
func Square() *Pattern { return pattern.PG2() }

// Diamond returns PG3, a 4-cycle with one chord.
func Diamond() *Pattern { return pattern.PG3() }

// FourClique returns PG4, the complete graph on 4 vertices.
func FourClique() *Pattern { return pattern.PG4() }

// House returns PG5, the 5-vertex house graph (square with a roof).
func House() *Pattern { return pattern.PG5() }

// Cycle returns the k-cycle (k >= 3).
func Cycle(k int) *Pattern { return pattern.Cycle(k) }

// Clique returns the complete graph on k vertices (k >= 2).
func Clique(k int) *Pattern { return pattern.Clique(k) }

// Path returns the simple path on k vertices (k >= 2).
func Path(k int) *Pattern { return pattern.Path(k) }

// Star returns the star with k leaves.
func Star(k int) *Pattern { return pattern.Star(k) }

// PatternByName resolves "pg1".."pg5", "triangle", "square", "diamond",
// "house", and parameterized "cycleN"/"cliqueN"/"pathN"/"starN".
func PatternByName(name string) (*Pattern, error) { return pattern.ByName(name) }

// ParsePattern parses the pattern DSL the query service and CLIs accept:
// every PatternByName spelling plus "cycle(4)", "clique(4)", "path(3)",
// "star(5)", and explicit edge lists like "edges(0-1,1-2,2-0)". Whitespace
// and case are ignored. Patterns that are rejected by the engine (self
// loops, disconnected, too many vertices) or too symmetric to plan fail here
// with a descriptive error.
func ParsePattern(src string) (*Pattern, error) { return pattern.Parse(src) }

// Resident query service (cmd/psgl-server): the data graph is loaded once
// and queries in the pattern DSL are answered over HTTP with per-pattern
// plan caching, admission control, deadlines, and NDJSON result streaming.
type (
	// Server is the resident subgraph-listing query service.
	Server = serve.Server
	// ServerConfig tunes a Server (concurrency, queueing, deadlines, tracing,
	// compaction). It has no fault-tolerance fields: served queries run
	// in-process, where nothing fails that a checkpoint could recover.
	ServerConfig = serve.Config
	// ServerStats is the /stats document.
	ServerStats = serve.StatsResponse
)

// NewServer builds a resident query service over g. Mount Handler on an
// http.Server and call Drain on shutdown.
func NewServer(g *Graph, cfg ServerConfig) (*Server, error) { return serve.New(g, cfg) }

// Dynamic graphs (internal/graph.Overlay + internal/delta): the CSR data
// graph is immutable, so mutation is layered on top — an Overlay records
// add/remove batches against a base graph and materializes immutable
// snapshots, and ListDelta computes exactly the embeddings a batch gained
// and lost without re-enumerating the whole graph. The same machinery backs
// the query service's POST /update and POST /subscribe endpoints.
type (
	// GraphOverlay is a versioned mutable edge-set overlay on an immutable
	// base graph: batches apply atomically, every accepted batch advances the
	// mutation epoch, and an incremental order-independent edge fingerprint
	// tracks the current edge set.
	GraphOverlay = graph.Overlay
	// MutationBatch is one atomic set of edge additions and removals.
	MutationBatch = graph.Batch
	// MutationResult reports a batch's effective additions, removals, noops,
	// and the epoch it produced.
	MutationResult = graph.BatchResult
	// DeltaOptions tunes a delta enumeration; the zero value is ready to use.
	// Every anchored run is strict and in-process, without checkpoints, so
	// each gained or lost embedding is reported exactly once.
	DeltaOptions = delta.Options
	// DeltaResult carries the gained/lost counts, the optional embedding
	// lists, and the run statistics of one delta enumeration.
	DeltaResult = delta.Result
)

// NewGraphOverlay starts an overlay with base's edge set at epoch 0.
func NewGraphOverlay(base *Graph) *GraphOverlay { return graph.NewOverlay(base) }

// ListDelta computes exactly the embeddings of p gained and lost between old
// and new, where new differs from old by the given added and removed edges
// (the values a GraphOverlay.ApplyBatch result reports). The identity
// count(old) + gained - lost == count(new) holds for every pattern.
func ListDelta(ctx context.Context, old, new *Graph, added, removed [][2]VertexID, p *Pattern, opts DeltaOptions) (*DeltaResult, error) {
	return delta.Enumerate(ctx, old, new, added, removed, p, opts)
}

// Labeled subgraph matching (the generalization the paper's related-work
// section describes: listing is matching with uniform labels). Attach labels
// to a pattern with Pattern.WithLabels and to the data graph with
// Options.DataLabels; candidates must then match labels, and symmetry
// breaking respects them.

// CountCentralizedLabeled is the labeled-matching oracle.
func CountCentralizedLabeled(g *Graph, p *Pattern, dataLabels []int32) int64 {
	return centralized.CountInstancesLabeled(p.BreakAutomorphisms(), g, dataLabels)
}

// Reference implementations (the systems the paper compares against).

// CountCentralized enumerates instances on a single thread (the correctness
// oracle; the GraphChi stand-in of Table 3). Like List, it breaks the
// pattern's automorphisms first, so each instance is counted exactly once.
func CountCentralized(g *Graph, p *Pattern) int64 {
	return centralized.CountInstances(p.BreakAutomorphisms(), g)
}

// CountTriangles lists triangles with the ordered-intersection method of
// Chiba–Nishizeki; the fastest exact single-machine triangle counter here.
func CountTriangles(g *Graph) int64 { return centralized.CountTriangles(g) }

// CountTrianglesOutOfCore counts triangles with the GraphChi-style sharded
// out-of-core pipeline (disk shards, bounded memory window).
func CountTrianglesOutOfCore(g *Graph, shards int) (int64, error) {
	res, err := graphchi.CountTriangles(g, graphchi.Options{Shards: shards})
	if err != nil {
		return 0, err
	}
	return res.Triangles, nil
}

// EstimateTriangles runs the one-pass wedge-sampling stream estimator
// (related-work family of Section 2: bounded memory, approximate count, no
// instance listing) with k wedge samples.
func EstimateTriangles(g *Graph, k int, seed int64) (float64, error) {
	est, err := stream.EstimateTriangles(g, k, seed)
	if err != nil {
		return 0, err
	}
	return est.Estimate, nil
}

// MotifCensus counts every pattern in patterns over g with the PSgL engine,
// returning counts keyed by pattern name — the motif-profile workload the
// paper's introduction motivates. Patterns are processed sequentially, each
// with the full worker pool.
//
// For the complementary workload — count every connected k-vertex shape at
// once, without naming the patterns up front — use Census, which runs the
// dedicated ESU engine instead of one PSgL listing per pattern.
func MotifCensus(g *Graph, patterns []*Pattern, opts Options) (map[string]int64, error) {
	out := make(map[string]int64, len(patterns))
	for _, p := range patterns {
		n, err := Count(g, p, opts)
		if err != nil {
			return nil, fmt.Errorf("motif %s: %w", p.Name(), err)
		}
		out[p.Name()] = n
	}
	return out, nil
}

// Motif census engine (internal/esu): where List answers "list all embeddings
// of this one pattern", Census answers "count every connected k-vertex
// subgraph shape" — Wernicke's ESU algorithm parallelized per root vertex
// over the graph's CSR adjacency, with a sharded canonical-form memo cache
// shared across workers. The same engine backs the query service's census(k)
// verb.
type (
	// CensusOptions tunes a census run; the zero value is ready to use.
	CensusOptions = esu.Options
	// CensusResult is a census outcome: total subgraphs, the motif histogram,
	// memo-cache hit counts, and wall time.
	CensusResult = esu.Result
	// MotifClass is one isomorphism class of the census histogram.
	MotifClass = esu.MotifCount
	// CensusCanonCache is the sharded canonical-form memo cache; build one
	// with NewCensusCanonCache and pass it via CensusOptions.Cache to warm
	// repeat censuses of the same k.
	CensusCanonCache = esu.CanonCache
)

// MinCensusK and MaxCensusK bound the census subgraph size k.
const (
	MinCensusK = esu.MinK
	MaxCensusK = esu.MaxK
)

// Census counts every connected induced k-vertex subgraph of g, classified
// into isomorphism classes — the motif histogram.
func Census(g *Graph, k int, opts CensusOptions) (*CensusResult, error) {
	return esu.Count(g, k, opts)
}

// CensusContext is Census with cancellation: the enumeration stops at the
// next root-vertex boundary once ctx is done.
func CensusContext(ctx context.Context, g *Graph, k int, opts CensusOptions) (*CensusResult, error) {
	return esu.CountContext(ctx, g, k, opts)
}

// NewCensusCanonCache builds an empty canonical-form memo cache for size-k
// censuses, shareable across concurrent runs.
func NewCensusCanonCache(k int) *CensusCanonCache { return esu.NewCanonCache(k) }

// ParseCensus recognizes the DSL's census verb, "census(k)". ok reports
// whether src is a census expression at all — when false, parse src as a
// pattern instead; when true, err still flags a malformed or out-of-range k.
// CLIs that accept both query forms in one argument try this first.
func ParseCensus(src string) (k int, ok bool, err error) { return pattern.ParseCensus(src) }

// VerifyCensus cross-checks res against the naive centralized census oracle —
// an independent enumerator and canonicalizer — and reports the first
// discrepancy. The two engines may pick different canonical representatives
// for a class, so comparison happens after mapping res's class codes through
// the oracle's canonical form.
func VerifyCensus(g *Graph, res *CensusResult) error {
	wantHist, wantTotal := centralized.MotifCensus(g, res.K)
	if res.Subgraphs != wantTotal {
		return fmt.Errorf("psgl: census k=%d counted %d subgraphs, oracle counted %d",
			res.K, res.Subgraphs, wantTotal)
	}
	got := make(map[uint32]int64, len(res.Classes))
	for _, c := range res.Classes {
		got[centralized.CanonicalSubgraphCode(res.K, c.Code)] += c.Count
	}
	if len(got) != len(wantHist) {
		return fmt.Errorf("psgl: census k=%d found %d motif classes, oracle found %d",
			res.K, len(got), len(wantHist))
	}
	for code, want := range wantHist {
		if got[code] != want {
			return fmt.Errorf("psgl: census k=%d class %#x counted %d, oracle counted %d",
				res.K, code, got[code], want)
		}
	}
	return nil
}

// AfratiOptions configures CountAfrati.
type AfratiOptions = afrati.Options

// CountAfrati counts instances with the one-round multiway MapReduce join of
// Afrati et al. (ICDE 2013).
func CountAfrati(g *Graph, p *Pattern, opts AfratiOptions) (int64, error) {
	res, err := afrati.Run(g, p, opts)
	if err != nil {
		return 0, err
	}
	return res.Count, nil
}

// SGIAOptions configures CountSGIA.
type SGIAOptions = sgia.Options

// CountSGIA counts instances with the SGIA-MR-style iterative edge join
// (Plantenga, JPDC 2013).
func CountSGIA(g *Graph, p *Pattern, opts SGIAOptions) (int64, error) {
	res, err := sgia.Run(g, p, opts)
	if err != nil {
		return 0, err
	}
	return res.Count, nil
}

// OneHopOptions configures CountOneHop.
type OneHopOptions = onehop.Options

// CountOneHop counts instances with the PowerGraph-style fixed-traversal-
// order engine (one-hop pruning only).
func CountOneHop(g *Graph, p *Pattern, opts OneHopOptions) (int64, error) {
	res, err := onehop.Run(g, p, opts)
	if err != nil {
		return 0, err
	}
	return res.Count, nil
}
