package core

import (
	"errors"
	"time"

	"psgl/internal/bsp"
	"psgl/internal/graph"
	"psgl/internal/obs"
)

// ErrOutOfMemory reports that the run exceeded Options.MaxIntermediate
// partial subgraph instances — the reproduction's deterministic analogue of
// the JVM OutOfMemory failures in Tables 2 and 4.
var ErrOutOfMemory = errors.New("psgl: intermediate result budget exceeded (OOM)")

// Options configures a PSgL run. The zero value is valid: 4 workers,
// automatic initial-vertex selection, no memory budget.
type Options struct {
	// Workers is the number of BSP workers K. 0 means 4.
	Workers int
	// InitialVertex fixes the initial pattern vertex. Negative (or zero
	// value via NewOptions) selects automatically: the Theorem 5 rule for
	// cycles and cliques, the Algorithm 4 cost model otherwise.
	InitialVertex int
	// MaxIntermediate aborts with ErrOutOfMemory once the total number of
	// generated Gpsis exceeds it. 0 means unlimited.
	MaxIntermediate int64
	// Seed drives the random partition, and in the partitioned model the
	// randomized strategies (PreparePartitioned).
	Seed int64
	// Collect retains the full instance mappings in Result.Instances (only
	// sensible for small result sets; counting is the default, as in the
	// paper's experiments).
	Collect bool
	// DataLabels, when non-nil, carries one label per data vertex and
	// switches the engine from subgraph listing to labeled subgraph
	// matching: a data vertex is only a candidate for a pattern vertex with
	// the same label. The pattern must carry labels too (Pattern.WithLabels)
	// and vice versa.
	DataLabels []int32
	// OnInstance, when non-nil, streams each found instance's mapping
	// (pattern vertex -> data vertex) as it is emitted, without retaining
	// it. The callback runs concurrently on worker goroutines and must be
	// safe for concurrent use; the slice is only valid during the call —
	// copy it to keep it.
	OnInstance func(mapping []graph.VertexID)
	// PlannedPattern declares that the pattern already carries its
	// symmetry-breaking partial order (i.e. it came from BreakAutomorphisms,
	// possibly via a plan cache): the engine uses it as-is instead of
	// recomputing the orders per run. Pair it with InitialVertex from the
	// same plan to skip per-run initial-vertex selection entirely — the
	// serving layer's plan-reuse path. A pattern passed with no orders
	// (StripOrders) then runs unbroken, and every instance is found |Aut|
	// times: the symmetry-breaking ablation.
	PlannedPattern bool
	// Seeds, when non-empty, switches the run from whole-graph enumeration to
	// seeded enumeration: instead of every eligible data vertex hosting the
	// initial pattern vertex, each seed pins a set of pattern vertices to
	// concrete data vertices and expansion proceeds only from those partial
	// instances. Pinned-pinned pattern edges are verified eagerly at seeding
	// time; seeds violating a degree, label, order, or edge constraint are
	// dropped (counted in the pruning breakdown), while structurally malformed
	// seeds (out of range, non-injective) fail the run up front. Every
	// completion of every seed is found exactly once, but distinct seeds can
	// reach the same embedding — dedup across seeds is the caller's job (the
	// delta enumerator does it with EmitFilter). InitialVertex is ignored.
	// This is the anchored-enumeration primitive behind internal/delta.
	Seeds []Seed
	// EmitFilter, when non-nil, is consulted for every complete, fully
	// verified embedding just before it is counted: returning false drops the
	// embedding (counted as PrunedByFilter) from Count, Collect, OnInstance,
	// and MaxResults alike. The callback runs concurrently on worker
	// goroutines and must be safe for concurrent use; the mapping slice is
	// only valid during the call.
	EmitFilter func(mapping []graph.VertexID) bool
	// IdentityOrder replaces the degree-based vertex total order of Section 3
	// with the vertex-id order. Counts are identical under any total order;
	// the canonical representative chosen per automorphism class is not.
	// Delta maintenance runs under this order because it is stable across
	// edge mutations, keeping standing embeddings byte-comparable between
	// epochs (the degree order can reshuffle after a single edge flip). It
	// also skips relabelling the graph by degree rank — set-up that matters
	// when small update batches spin up many short runs.
	IdentityOrder bool
	// MaxResults stops the run early once this many instances have been
	// found (0 = unlimited). The stop is cooperative: workers finish their
	// current message, so slightly more than MaxResults instances may be
	// counted before the run winds down. An early-stopped run returns
	// success with Result.Truncated set — the streaming `limit` fast path.
	MaxResults int64
	// Exchange overrides the BSP message exchange (e.g.
	// bsp.NewTCPExchangeFactory() for loopback TCP between the workers'
	// goroutines). The partitioned model (PreparePartitioned) refuses it,
	// like AsyncExchange and the checkpoint fields below.
	Exchange bsp.ExchangeFactory
	// AsyncExchange runs the BSP substrate in pipelined async mode: a worker
	// ships a peer's Gpsis as soon as that peer goes idle, receivers expand
	// them as they arrive, and termination is detected by credit/ack
	// accounting instead of barriers. Counts are bit-identical to strict
	// mode (the engine's enumeration is processing-order independent; the
	// differential suites pin it) — except under MaxResults, where the early
	// stop lands on a different processing prefix, so the truncated count
	// may differ between modes. A worker expands its own newest Gpsis first,
	// so a MaxResults run goes depth first and stops after a few chunks per
	// level instead of a breadth-first level. Without Seeds, a worker seeds
	// on demand from a cursor on its own queue, highest-degree vertices
	// first, only when it has no deeper own work, so a capped run never
	// builds the seeds it does not reach. Checkpoints snapshot at quiescence
	// points instead of barriers.
	AsyncExchange bool

	// Fault tolerance (the Giraph substrate's model, Section 6): snapshot at
	// barriers, and restart a stopped run from its last snapshot. A failed
	// frame Send ends the run with its error. A resumed run's count and
	// counters equal a clean run's. Its Collect and OnInstance see only what
	// it emits itself: the instances its snapshot had not counted yet, while
	// Result.Count includes the rest. So the stopped run's first Count −
	// len(resumed stream) instances, followed by the resumed stream, are the
	// clean run's. A snapshot records the identity of the run that took it
	// (graph, planned pattern, initial vertex, seeds, data labels), and a
	// run resuming from another run's snapshot is refused with
	// bsp.ErrCorruptCheckpoint. Only one memory domain (Prepare) checkpoints
	// and resumes; a PreparePartitioned state refuses both with
	// ErrPreparedMismatch.

	// CheckpointEvery > 0 snapshots the BSP state into CheckpointStore at
	// every Nth superstep barrier.
	CheckpointEvery int
	// CheckpointStore receives the snapshots (e.g. bsp.NewMemCheckpointStore
	// or bsp.NewFileCheckpointStore); required when CheckpointEvery > 0.
	CheckpointStore bsp.CheckpointStore
	// ResumeFrom, when non-nil, resumes the run from the latest snapshot in
	// the store instead of starting from scratch (an empty store falls back
	// to a fresh start).
	ResumeFrom bsp.CheckpointStore
	// Observer receives the run's metrics and trace events: superstep
	// timings, message and transport volume, checkpoint and resume events,
	// and — at run end — the engine counters and per-worker loads that Stats
	// is built from, so the observer's logical view matches Stats bit-for-bit
	// on clean and resumed runs alike. Nil disables observation
	// at zero cost.
	Observer *obs.Observer

	// Seams of the bitset AND candidate path, set only by this package's
	// tests and HotpathBenchmarks. disableBitsetAnd turns the path off (the
	// "w/o bitset" configuration): candidates between hubs then come from the
	// merge path, and counts are identical, because the AND is an exact filter
	// whose rejects pending-edge verification would prune later.
	// bitmapMinDegree overrides the hub-degree threshold of the bitmap index
	// (exact edge tests and the AND both key off it); 0 keeps max(256,
	// |V|/32).
	disableBitsetAnd bool
	bitmapMinDegree  int
}

// Seed pins pattern vertices to concrete data vertices before expansion
// begins — one partial instance the run grows instead of seeding from every
// data vertex. The two slices are parallel: PatternVertices[i] is mapped to
// DataVertices[i]. Both sides must be injective and in range.
type Seed struct {
	PatternVertices []int
	DataVertices    []graph.VertexID
}

// NewOptions returns the defaults spelled out explicitly.
func NewOptions() Options {
	return Options{
		Workers:       4,
		InitialVertex: -1,
	}
}

func (o Options) normalized() Options {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	return o
}

// Stats aggregates the run metrics the paper's evaluation reports.
type Stats struct {
	// Supersteps is S of Equation 3. Seeds are expanded where Init builds
	// them, so the initialization and first expansion phases share superstep
	// 0: every superstep expands Gpsis, one fewer than the paper's count.
	Supersteps int
	// GpsiGenerated counts every partial subgraph instance created — the
	// "Gpsi#" column of Table 2. A seed counts when it is built: all in Init,
	// or, under AsyncExchange, as a seed cursor reaches it; it is processed as
	// it is expanded, on the spot. A cursor itself is not a Gpsi and counts in
	// neither total.
	GpsiGenerated int64
	// GpsiProcessed counts expansion calls.
	GpsiProcessed int64
	// Pruning breakdown (Algorithm 5 and GRAY verification). PrunedByOrder
	// counts the candidates the symmetry-breaking order refuted: the entries of
	// a sorted row or candidate list outside the order window, counted by the
	// window's range size. Every other filter runs inside the window only, so
	// PrunedByDegree, PrunedByLabel and PrunedByInjectivity leave out the
	// entries that were also outside it. On a degree-ordered state (Prepare's,
	// not a patched or IdentityOrder one) PrunedByDegree is counted by range
	// too, as the window's prefix below the first rank of sufficient degree;
	// the count equals the per-candidate test's.
	PrunedByDegree      int64
	PrunedByOrder       int64
	PrunedByIndex       int64
	PrunedByInjectivity int64
	PrunedByVerify      int64
	PrunedByLabel       int64
	// PrunedByFilter counts complete embeddings dropped by Options.EmitFilter.
	PrunedByFilter int64
	// EdgeIndexQueries counts bloom lookups (0 in one memory domain).
	EdgeIndexQueries int64
	// BitsetAndCandidates counts candidate generations served by the bitset
	// AND fast path (hub × hub row intersections) instead of the merge path.
	BitsetAndCandidates int64
	// Results is the number of instances found.
	Results int64
	// InitialVertex is the pattern vertex the run started from.
	InitialVertex int
	// Per-worker metrics (Figure 5): compute time and cost-model load units.
	// WorkerMessages[w] counts the messages worker w processed: every Gpsi it
	// expanded but its seeds, which are never messages, and under
	// AsyncExchange its seed-cursor steps, which GpsiProcessed leaves out.
	WorkerTime     []time.Duration
	WorkerMessages []int64
	LoadUnits      []float64
	// PerStepMessages[s] is the number of messages produced in superstep s:
	// the Gpsis sent, and under AsyncExchange the re-queued seed cursors too.
	// A seed is expanded where it is built and is in no entry, so a strict
	// run's entry 0 is the seeds' children.
	PerStepMessages []int64
	// SimulatedMakespan is Σ_s max_k L_ks (Equation 3) over measured
	// per-worker compute times.
	SimulatedMakespan time.Duration
	// LoadMakespan is Σ_s max_k L_ks over cost-model load units instead of
	// measured times: deterministic, and meaningful even when the simulated
	// worker count exceeds the physical core count (Figures 5 and 8).
	LoadMakespan float64
	// WallTime is the physical elapsed time of the run.
	WallTime time.Duration
	// EdgeIndexBytes is the footprint of the bloom index (0 in one memory
	// domain and when disabled).
	EdgeIndexBytes int64
}

// Result is the outcome of a run.
type Result struct {
	// Count is the number of subgraph instances found. When Truncated is
	// set, Count reflects the instances found before the early stop took
	// effect (at least MaxResults; possibly a few more, see
	// Options.MaxResults).
	Count int64
	// Instances holds the mappings (pattern vertex -> data vertex) when
	// Options.Collect is set.
	Instances [][]graph.VertexID
	// Truncated reports that the run stopped early because
	// Options.MaxResults was reached; the enumeration is incomplete.
	Truncated bool
	Stats     Stats
}
