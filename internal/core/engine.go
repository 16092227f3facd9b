package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"psgl/internal/bsp"
	"psgl/internal/graph"
	"psgl/internal/pattern"
)

// Run lists all instances of p in g with the PSgL engine and returns the
// count (and instances when opts.Collect is set) together with run metrics.
//
// Unless opts.PlannedPattern is set, the pattern's automorphisms are broken
// first, so every instance is found exactly once regardless of how p was
// constructed.
func Run(g *graph.Graph, p *pattern.Pattern, opts Options) (*Result, error) {
	return RunContext(context.Background(), g, p, opts)
}

// RunContext is Run with cancellation and checkpoints: ctx cancellation stops
// the run at the next message boundary, and the Options checkpoint fields
// snapshot it and resume it.
// It is Prepare followed by one run on the result, except that it reuses the
// previous call's Prepared when g is the same graph and opts agree with it
// (a graph is immutable, and a Prepared is read-only), so repeated cold runs
// over one graph build the state once. A caller with several graphs keeps its
// own Prepared values.
func RunContext(ctx context.Context, g *graph.Graph, p *pattern.Pattern, opts Options) (*Result, error) {
	if g == nil || p == nil {
		return nil, fmt.Errorf("psgl: nil graph or pattern")
	}
	pr := lastCold.Load()
	if pr == nil || pr.src != g || pr.check(opts.normalized()) != nil {
		pr = Prepare(g, opts)
		lastCold.Store(pr)
	}
	return pr.RunContext(ctx, p, opts)
}

// lastCold is the Prepared of the latest RunContext that built one. It is a
// cache, not shared configuration: a reused Prepared answers exactly as a
// fresh one would (TestPreparedRunMatchesRunContext).
var lastCold atomic.Pointer[Prepared]

// RunContext lists all instances of p in the prepared graph. opts must agree
// with the Options the state was prepared under on every field Prepare takes
// (ErrPreparedMismatch otherwise); all other fields are per run. Safe for
// concurrent use: runs share pr read-only.
func (pr *Prepared) RunContext(ctx context.Context, p *pattern.Pattern, opts Options) (*Result, error) {
	if p == nil {
		return nil, fmt.Errorf("psgl: nil pattern")
	}
	g := pr.g
	if p.N() > maxPatternVertices {
		return nil, fmt.Errorf("psgl: pattern has %d vertices; engine supports up to %d", p.N(), maxPatternVertices)
	}
	opts = opts.normalized()
	if err := pr.check(opts); err != nil {
		return nil, err
	}
	if (opts.DataLabels != nil) != p.Labeled() {
		return nil, fmt.Errorf("psgl: labeled matching needs labels on both the pattern and the data graph")
	}
	if opts.DataLabels != nil && len(opts.DataLabels) != g.NumVertices() {
		return nil, fmt.Errorf("psgl: %d data labels for %d vertices", len(opts.DataLabels), g.NumVertices())
	}

	if err := validateSeeds(g, p, opts.Seeds); err != nil {
		return nil, err
	}

	if !opts.PlannedPattern {
		p = p.BreakAutomorphisms()
	}

	e, err := newEngine(pr, p, opts)
	if err != nil {
		return nil, err
	}

	cfg := bsp.Config{
		Workers:         opts.Workers,
		Owner:           e.ownerOf,
		Exchange:        opts.Exchange,
		AsyncExchange:   opts.AsyncExchange,
		CheckpointEvery: opts.CheckpointEvery,
		CheckpointStore: opts.CheckpointStore,
		ResumeFrom:      opts.ResumeFrom,
		Observer:        opts.Observer,
	}
	start := time.Now()
	runStats, err := bsp.RunContext[gpsi](ctx, cfg, pr.program(e))
	wall := time.Since(start)
	if err != nil {
		switch e.halted.Load() {
		case haltOOM:
			err = ErrOutOfMemory
		case haltStopped:
			// The MaxResults early stop aborts the BSP run on purpose; the
			// truncated enumeration is a success.
			err = nil
		default:
			return nil, err
		}
	}
	res := e.buildResult(runStats, wall)
	res.Stats.EdgeIndexBytes = pr.paper.indexBytes()
	return res, err
}

// errEarlyStop is the sentinel the engine aborts with once MaxResults
// instances have been found; RunContext converts it back into a successful,
// truncated result.
var errEarlyStop = errors.New("psgl: result limit reached")

// errStuck aborts a run on an incomplete Gpsi with no GRAY vertex, which a
// connected pattern never leaves: a guard against silent loss.
var errStuck = errors.New("psgl: stuck Gpsi with no GRAY vertex")

// engineCounter ties a run counter to the Stats field buildResult copies it
// into. engineCounters is the whole table, filled as the ids below initialize;
// the hot path counts through the ids, never through a name.
type engineCounter struct {
	id    bsp.Counter
	name  string
	field func(*Stats) *int64
}

var engineCounters []engineCounter

func counter(name string, field func(*Stats) *int64) bsp.Counter {
	id := bsp.CounterID(name)
	engineCounters = append(engineCounters, engineCounter{id, name, field})
	return id
}

var (
	ctrGenerated       = counter("generated", func(s *Stats) *int64 { return &s.GpsiGenerated })
	ctrProcessed       = counter("processed", func(s *Stats) *int64 { return &s.GpsiProcessed })
	ctrPrunedDegree    = counter("pruned_degree", func(s *Stats) *int64 { return &s.PrunedByDegree })
	ctrPrunedOrder     = counter("pruned_order", func(s *Stats) *int64 { return &s.PrunedByOrder })
	ctrPrunedIndex     = counter("pruned_index", func(s *Stats) *int64 { return &s.PrunedByIndex })
	ctrPrunedInjective = counter("pruned_injective", func(s *Stats) *int64 { return &s.PrunedByInjectivity })
	ctrPrunedVerify    = counter("pruned_verify", func(s *Stats) *int64 { return &s.PrunedByVerify })
	ctrPrunedLabel     = counter("pruned_label", func(s *Stats) *int64 { return &s.PrunedByLabel })
	ctrPrunedFilter    = counter("pruned_filter", func(s *Stats) *int64 { return &s.PrunedByFilter })
	ctrIndexQueries    = counter("index_queries", func(s *Stats) *int64 { return &s.EdgeIndexQueries })
	ctrBitsetAnd       = counter("bitset_and", func(s *Stats) *int64 { return &s.BitsetAndCandidates })
	ctrResults         = counter("results", func(s *Stats) *int64 { return &s.Results })
)

// The values of engine.halted.
const (
	haltStopped = 1 + iota // MaxResults reached: the truncated run is a success
	haltOOM                // MaxIntermediate exceeded
)

// engine implements bsp.Program[gpsi] (and bsp.Snapshotter, so its
// accumulators ride barrier snapshots and stay exactly-once across a resume).
type engine struct {
	// g is the data graph in rank space (Prepared's): the symmetry-breaking
	// order of two vertices is the order of their ids. orig maps a vertex back
	// to the caller's id (nil when the two agree); opts.Seeds and
	// opts.DataLabels are translated into rank space by newEngine, and every
	// embedding is translated back through orig on its way out.
	g    *graph.Graph
	orig []graph.VertexID
	p    *pattern.Pattern
	opts Options
	// bitmap's hub bitsets serve the AND of candidates and admits, which
	// otherwise merges along rows (SeekRow), as combine does (Section 5.1.1:
	// "costg ... can be done efficiently by a bitmap index"); its HasEdge is
	// the partitioned model's verification test.
	bitmap *graph.BitmapIndex
	// owner[v] is the worker owning data vertex v (Prepared's, read-only).
	owner []int32

	initial int
	// proto is the blank Gpsi seedAt stamps per seed vertex: all WHITE, sized
	// and aimed at the initial pattern vertex.
	proto gpsi
	// edgeID[a][b] numbers pattern edge a-b: combine keeps a row cursor per
	// edge.
	edgeID [maxPatternVertices][maxPatternVertices]int8
	// precede[v] is the set of pattern vertices v must rank below under the
	// symmetry-breaking partial order, follow[v] the set it must rank above,
	// adjacent[v] its neighbors — bitmasks, for window and admits.
	precede, follow, adjacent [maxPatternVertices]uint16
	// pEdges caches p.Edges(), which builds a fresh slice per call.
	pEdges [][2]int
	// The degree filter of pattern vertex pv (Algorithm 5). On a degree-ordered
	// state the vertices of degree p.Degree(pv) or more are the ranks from
	// floor[pv] on and minDeg[pv] is 0; elsewhere (patched, identity order)
	// floor is 0 and hosts tests Degree(d) ≥ minDeg[pv] per candidate.
	floor  [maxPatternVertices]graph.VertexID
	minDeg [maxPatternVertices]int
	// counts is set when the run emits nothing per instance (no OnInstance,
	// Collect, EmitFilter or MaxResults): combine may then count leaves.
	counts bool

	// Per-worker state; index w is touched only by worker w's goroutine
	// (bsp guarantees one goroutine per worker per superstep, with barriers
	// establishing happens-before between supersteps).
	scratch []workerScratch
	// stepLoads[w][s] is worker w's load units in superstep s (grown only by
	// worker w), the basis of the Equation 3 load makespan.
	stepLoads [][]float64

	// generated and results are shared by every worker, so they are written
	// only under the option that needs a global total: MaxIntermediate and
	// MaxResults. halted latches the first cap hit (haltOOM, haltStopped) and
	// is the one flag expand and combine read to short-circuit the rest.
	generated atomic.Int64
	results   atomic.Int64
	halted    atomic.Int32

	mu        sync.Mutex
	instances [][]graph.VertexID

	// id is the run's identity, computed at the first snapshot or restore.
	id *runIdentity
}

// expandFrame is a worker's expansion scratch: the WHITE vertices being
// combined, their candidate buffers, and combine's merge cursors (rows[eid]:
// what is left of the row of the earlier endpoint's image of pattern edge eid
// while the later one's slot is walked). admits has cursors of its own while
// one WHITE vertex's candidates are drawn: for each mapped neighbor u it
// tests, what is left of u's image's row (seek[u]), or the image's bitset
// when it is a hub (hub[u]). A worker expands one Gpsi at a time, so it needs
// one frame; reusing it keeps steady-state expansion allocation-free.
type expandFrame struct {
	whites [maxPatternVertices]int
	nw     int
	cands  [maxPatternVertices][]graph.VertexID
	rows   [maxPatternEdges][]graph.VertexID
	seek   [maxPatternVertices][]graph.VertexID
	hub    [maxPatternVertices][]uint64
	leaf   bool // the run only counts, and the last slot's children are complete
}

// adjacent reports whether candidate d is a neighbor of u's image, by one bit
// of a hub's bitset or by advancing u's row cursor to d. Candidates ascend,
// so no d is below one asked before.
func (fr *expandFrame) adjacent(u int, d graph.VertexID) bool {
	if hub := fr.hub[u]; hub != nil {
		return hub[d/64]&(1<<(uint(d)%64)) != 0
	}
	row := graph.SeekRow(fr.seek[u], d)
	fr.seek[u] = row
	return len(row) > 0 && row[0] == d
}

// workerScratch is everything only worker w's goroutine touches: the hot
// path's reusable buffers (zero-alloc expansion) and the worker's
// accumulators. Accumulators in engine-wide slices indexed by worker would
// sit side by side on shared cache lines, so every write by one worker would
// evict the line from the others' caches.
type workerScratch struct {
	frame expandFrame
	grays []int
	emit  []graph.VertexID
	load  float64 // accumulated cost-model load units

	_ [64]byte // keeps the next worker's scratch off this one's last cache line
}

// newEngine builds the pattern- and run-scoped state of one run over pr's
// graph-scoped state, which it only borrows.
func newEngine(pr *Prepared, p *pattern.Pattern, opts Options) (*engine, error) {
	e := &engine{
		g:      pr.g,
		orig:   pr.orig,
		p:      p,
		opts:   opts,
		bitmap: pr.bitmap,
		owner:  pr.owner,
		counts: opts.OnInstance == nil && !opts.Collect && opts.EmitFilter == nil && opts.MaxResults == 0,
	}
	if len(opts.Seeds) > 0 && pr.orig != nil {
		rank := pr.ranks()
		e.opts.Seeds = make([]Seed, len(opts.Seeds))
		for i, s := range opts.Seeds {
			dv := make([]graph.VertexID, len(s.DataVertices))
			for j, v := range s.DataVertices {
				dv[j] = rank[v]
			}
			e.opts.Seeds[i] = Seed{PatternVertices: s.PatternVertices, DataVertices: dv}
		}
	}
	if opts.DataLabels != nil && pr.orig != nil {
		e.opts.DataLabels = make([]int32, len(pr.orig))
		for r, v := range pr.orig {
			e.opts.DataLabels[r] = opts.DataLabels[v]
		}
	}
	n := p.N()
	e.pEdges = p.Edges()
	if len(e.pEdges) > maxPatternEdges {
		return nil, fmt.Errorf("psgl: pattern has more than %d edges", maxPatternEdges)
	}
	for i, edge := range e.pEdges {
		e.edgeID[edge[0]][edge[1]], e.edgeID[edge[1]][edge[0]] = int8(i), int8(i)
	}
	for pv := range n {
		if deg := p.Degree(pv); pr.byDegree {
			e.floor[pv] = graph.VertexID(sort.Search(pr.g.NumVertices(), func(r int) bool {
				return pr.g.Degree(graph.VertexID(r)) >= deg
			}))
		} else {
			e.minDeg[pv] = deg
		}
	}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if p.MustPrecede(a, b) {
				e.precede[a] |= 1 << uint(b)
				e.follow[b] |= 1 << uint(a)
			}
			if p.HasEdge(a, b) {
				e.adjacent[a] |= 1 << uint(b)
			}
		}
	}
	switch {
	case opts.InitialVertex >= p.N():
		return nil, fmt.Errorf("psgl: initial vertex %d out of range [0,%d)", opts.InitialVertex, p.N())
	case opts.InitialVertex >= 0:
		e.initial = opts.InitialVertex
	default:
		e.initial = SelectInitialVertex(p, pr.degreeDist())
	}
	e.proto = gpsi{Next: int8(e.initial), N: int8(n)}
	for i := range e.proto.Map {
		e.proto.Map[i] = unmapped
	}
	e.scratch = make([]workerScratch, opts.Workers)
	e.stepLoads = make([][]float64, opts.Workers)
	return e, nil
}

// ownerOf returns the worker that owns data vertex v.
func (e *engine) ownerOf(v graph.VertexID) int { return int(e.owner[v]) }

// validateSeeds rejects structurally malformed seeds up front: shape
// mismatches, out-of-range vertices, and non-injective pins are caller bugs,
// unlike constraint violations (degree, label, order, missing edge), which
// seedGpsi prunes silently at run time like any other dead-end Gpsi.
func validateSeeds(g *graph.Graph, p *pattern.Pattern, seeds []Seed) error {
	for i, s := range seeds {
		if len(s.PatternVertices) == 0 || len(s.PatternVertices) != len(s.DataVertices) {
			return fmt.Errorf("psgl: seed %d: %d pattern vertices pinned to %d data vertices",
				i, len(s.PatternVertices), len(s.DataVertices))
		}
		var pSeen uint32
		for j, pv := range s.PatternVertices {
			if pv < 0 || pv >= p.N() {
				return fmt.Errorf("psgl: seed %d: pattern vertex %d out of range [0,%d)", i, pv, p.N())
			}
			if pSeen&(1<<uint(pv)) != 0 {
				return fmt.Errorf("psgl: seed %d: pattern vertex %d pinned twice", i, pv)
			}
			pSeen |= 1 << uint(pv)
			dv := s.DataVertices[j]
			if int(dv) < 0 || int(dv) >= g.NumVertices() {
				return fmt.Errorf("psgl: seed %d: data vertex %d out of range [0,%d)", i, dv, g.NumVertices())
			}
			for k := 0; k < j; k++ {
				if s.DataVertices[k] == dv {
					return fmt.Errorf("psgl: seed %d: data vertex %d used twice", i, dv)
				}
			}
		}
	}
	return nil
}

// expansion is a model's expansion of one Gpsi: the product's engine.expand
// or the partitioned model's.
type expansion = func(*bsp.Context[gpsi], gpsi)

// Init is the initialization phase: each data vertex that can host the
// initial pattern vertex seeds a one-pair Gpsi, which its owner plants in
// ascending rank order, so the paper's initialization and first expansion
// phases share superstep 0. Under the pipelined policy a worker instead sends
// itself one seed cursor, which plants those seeds on demand (seedStep).
func (e *engine) Init(ctx *bsp.Context[gpsi]) { e.seed(ctx, e.expand) }

// seed is Init with the model's expansion.
func (e *engine) seed(ctx *bsp.Context[gpsi], expand expansion) {
	if len(e.opts.Seeds) > 0 {
		e.initSeeds(ctx, expand)
		return
	}
	if e.opts.AsyncExchange {
		e.requeueCursor(ctx, graph.VertexID(len(e.owner)-1))
		return
	}
	minDeg, me, n := e.p.Degree(e.initial), int32(ctx.Worker()), 0
	for v, w := range e.owner {
		if w != me || !e.hosts(ctx, e.initial, minDeg, graph.VertexID(v)) {
			continue
		}
		if !e.plant(ctx, n, e.seedAt(graph.VertexID(v)), expand) {
			return
		}
		n++
	}
}

// seedAt is the one-pair seed mapping the initial pattern vertex to vd.
func (e *engine) seedAt(vd graph.VertexID) gpsi {
	m := e.proto
	m.Map[e.initial] = vd
	return m
}

// plant is where every seed starts, under every policy: counted as generated
// (and against MaxIntermediate) as it is built, and expanded on the spot, never
// queued or carried across a barrier. n numbers the caller's seeds; every 256th
// polls the stop test first, as an Init that plants does a superstep's worth of
// expansion. false means the run is stopping.
func (e *engine) plant(ctx *bsp.Context[gpsi], n int, m gpsi, expand expansion) bool {
	if e.halted.Load() != 0 || n&255 == 0 && ctx.Stopped() {
		return false
	}
	e.generate(ctx)
	expand(ctx, m)
	return true
}

// seedStepChildren is how many children one cursor step may lead to, as
// bounded by its seeds' degrees, before the cursor yields: about one chunk of
// own work.
const seedStepChildren = 64

// seedStep is one step of a seed cursor: the pipelined initialization phase,
// run only when the worker has no deeper own work, since own work is taken
// newest first and the cursor is re-queued before anything its seeds produce.
// Walking down from the cursor's rank, it takes the owned vertices that can
// host the initial pattern vertex — hubs first, where cyclic patterns close
// early — until their children, bounded by deg^d for an initial vertex of
// pattern degree d, would fill a chunk: a hub goes alone, low-degree vertices
// in batches. The bound is known before any seed expands, so the advanced
// cursor is queued first; the seeds are planted. The cursor itself is neither
// generated nor processed.
func (e *engine) seedStep(ctx *bsp.Context[gpsi], cur gpsi) {
	if e.halted.Load() != 0 {
		return
	}
	d, me := e.p.Degree(e.initial), int32(ctx.Worker())
	var seeds [seedStepChildren]graph.VertexID
	n, children := 0, 0
	v := cur.Map[0]
	for ; v >= 0 && children < seedStepChildren; v-- {
		if e.owner[v] != me || !e.hosts(ctx, e.initial, d, v) {
			continue
		}
		seeds[n] = v
		n++
		bound, deg := 1, e.g.Degree(v)
		for i := 0; i < d && bound < seedStepChildren; i++ {
			bound *= deg
		}
		children += bound
	}
	e.requeueCursor(ctx, v)
	for i, vd := range seeds[:n] {
		if !e.plant(ctx, i, e.seedAt(vd), e.expand) {
			return
		}
	}
}

// requeueCursor sends this worker a seed cursor at the highest vertex it owns
// at or below rank v, if there is one.
func (e *engine) requeueCursor(ctx *bsp.Context[gpsi], v graph.VertexID) {
	me := int32(ctx.Worker())
	for ; v >= 0; v-- {
		if e.owner[v] == me {
			cur := gpsi{Next: seedCursor}
			cur.Map[0] = v
			ctx.Send(v, cur)
			return
		}
	}
}

// initSeeds is the seeded initialization phase: every worker walks the full
// seed list but only plants the seeds whose expansion vertex (the first pin)
// it owns, so each seed is admitted — and its pruning counted — exactly once,
// deterministically, like Init's ownership split.
func (e *engine) initSeeds(ctx *bsp.Context[gpsi], expand expansion) {
	w, n := ctx.Worker(), 0
	for _, s := range e.opts.Seeds {
		if e.ownerOf(s.DataVertices[0]) != w {
			continue
		}
		if m, ok := e.seedGpsi(ctx, s); ok && !e.plant(ctx, n, m, expand) {
			return
		}
		n++
	}
}

// seedGpsi builds the pinned Gpsi for one seed, applying the same admission
// filters the unseeded flow applies at candidate time — degree, label, and
// the symmetry-breaking partial order — plus eager exact verification of
// every pattern edge between two pinned vertices, so a seed starts with
// every edge among its pins proven. ok=false means the seed provably anchors
// no instance.
func (e *engine) seedGpsi(ctx *bsp.Context[gpsi], s Seed) (gpsi, bool) {
	m := e.proto
	for i, pv := range s.PatternVertices {
		dv := s.DataVertices[i]
		if !e.hosts(ctx, pv, e.p.Degree(pv), dv) {
			return m, false
		}
		m.Map[pv] = dv
	}
	for i, pv := range s.PatternVertices {
		du := m.Map[pv]
		later := uint16(0)
		for _, qv := range s.PatternVertices[i+1:] {
			later |= 1 << uint(qv)
		}
		if lo, hi := e.window(&m, pv, later); du <= lo || du >= hi {
			ctx.Add(ctrPrunedOrder, 1)
			return m, false
		}
		for _, qv := range s.PatternVertices[i+1:] {
			if e.p.HasEdge(pv, qv) && !e.g.HasEdge(du, m.Map[qv]) {
				ctx.Add(ctrPrunedVerify, 1)
				return m, false
			}
		}
	}
	m.Next = int8(s.PatternVertices[0])
	return m, true
}

// Process expands one partial subgraph instance (Algorithm 1), or takes one
// step of a seed cursor.
func (e *engine) Process(ctx *bsp.Context[gpsi], env bsp.Envelope[gpsi]) {
	if env.Msg.isCursor() {
		e.seedStep(ctx, env.Msg)
		return
	}
	e.expand(ctx, env.Msg)
}

// hosts applies the Gpsi-independent half of Algorithm 5 — the degree and
// label filters — to data vertex d as an image of pattern vertex pv. A minDeg
// of 0 skips the degree test (candidates, where the floor made it).
func (e *engine) hosts(ctx *bsp.Context[gpsi], pv, minDeg int, d graph.VertexID) bool {
	if minDeg > 0 && e.g.Degree(d) < minDeg {
		ctx.Add(ctrPrunedDegree, 1)
		return false
	}
	if e.opts.DataLabels != nil && int(e.opts.DataLabels[d]) != e.p.Label(pv) {
		ctx.Add(ctrPrunedLabel, 1)
		return false
	}
	return true
}

// window is the one partial-order filter. In rank space the symmetry-breaking
// order is the order of the ids, so the constraints of WHITE vertex wv against
// the images of among (a subset of m's mapped vertices) admit exactly the open
// interval (lo, hi): above every image of a vertex that must precede wv, below
// every image of a vertex wv must precede. An inverted interval admits nothing.
func (e *engine) window(m *gpsi, wv int, among uint16) (lo, hi graph.VertexID) {
	lo, hi = -1, math.MaxInt32
	for mask := e.follow[wv] & among; mask != 0; mask &= mask - 1 {
		lo = max(lo, m.Map[bits.TrailingZeros16(mask)])
	}
	for mask := e.precede[wv] & among; mask != 0; mask &= mask - 1 {
		hi = min(hi, m.Map[bits.TrailingZeros16(mask)])
	}
	return lo, hi
}

// inWindow returns the part of the ascending row inside wv's window against
// among — two binary searches, none for an unconstrained side — and counts
// the entries outside it as pruned by the order, by range size. Candidate
// generation passes the whole mapped set, combine the vertices mapped before
// wv's slot.
func (e *engine) inWindow(ctx *bsp.Context[gpsi], row []graph.VertexID, m *gpsi, wv int, among uint16) []graph.VertexID {
	lo, hi := e.window(m, wv, among)
	in := row
	if lo >= 0 {
		in = in[graph.LowerBound(in, lo+1):]
	}
	if hi != math.MaxInt32 {
		in = in[:graph.LowerBound(in, hi)]
	}
	if cut := len(row) - len(in); cut > 0 {
		ctx.Add(ctrPrunedOrder, int64(cut))
	}
	return in
}

// admits applies the per-Gpsi half of Algorithm 5 to candidate d, which the
// order window already admitted: injectivity, and an exact test of every
// closing edge from d to the mapped neighbors in probe, along fr's cursors.
func (e *engine) admits(ctx *bsp.Context[gpsi], m *gpsi, fr *expandFrame, d graph.VertexID, probe uint16) bool {
	if m.uses(d) {
		ctx.Add(ctrPrunedInjective, 1)
		return false
	}
	for mask := probe; mask != 0; mask &= mask - 1 {
		if !fr.adjacent(bits.TrailingZeros16(mask), d) {
			ctx.Add(ctrPrunedVerify, 1)
			return false
		}
	}
	return true
}

// expand is Algorithm 1 for one Gpsi, in one memory domain: every closing
// edge is tested where it is met, so a child carries none unproven.
func (e *engine) expand(ctx *bsp.Context[gpsi], m gpsi) {
	if e.halted.Load() != 0 {
		return
	}
	ctx.Add(ctrProcessed, 1)
	vp := int(m.Next)
	vd := m.Map[vp]
	m.Expanded |= 1 << uint(vp)
	mapped := m.mappedMask()
	// Candidate sets for WHITE neighbors (Algorithm 5), built in this
	// worker's reusable scratch frame.
	fr := &e.scratch[ctx.Worker()].frame
	fr.nw = 0
	loadUnits := 1.0
	for _, wv := range e.p.Neighbors(vp) {
		if mapped&(1<<uint(wv)) != 0 {
			continue
		}
		probe := e.adjacent[wv] & mapped &^ (1 << uint(vp))
		cand, _ := e.candidates(ctx, &m, fr, mapped, probe, vp, vd, wv, fr.cands[fr.nw][:0])
		fr.cands[fr.nw] = cand
		if len(cand) == 0 {
			return // dead end: this Gpsi leads to no instance
		}
		fr.whites[fr.nw] = wv
		fr.nw++
		loadUnits *= float64(len(cand))
	}
	e.account(ctx, loadUnits)
	fr.leaf = e.counts && bits.OnesCount16(mapped)+fr.nw == int(m.N)
	e.combine(ctx, &m, fr, 0)
}

// account adds an expansion's load units to its worker's totals, overall and
// in this superstep.
func (e *engine) account(ctx *bsp.Context[gpsi], units float64) {
	w, s := ctx.Worker(), ctx.Step()
	e.scratch[w].load += units
	for len(e.stepLoads[w]) <= s {
		e.stepLoads[w] = append(e.stepLoads[w], 0)
	}
	e.stepLoads[w][s] += units
}

// candidates appends to out the admissible data vertices for WHITE pattern
// vertex wv while expanding vp at vd: the part of vd's row inside wv's order
// window, through the degree and label filters, injectivity, and the
// closing-edge tests of admits against the mapped neighbors of wv in probe.
// The degree filter cuts the window's prefix below floor[wv], counted by range
// (by bit, the AND's survivors only, on the bitset path). out is a reusable
// scratch buffer owned by the caller's expansion frame fr. proven is the set
// of mapped neighbors whose edge to every candidate the bitset AND
// established.
func (e *engine) candidates(ctx *bsp.Context[gpsi], m *gpsi, fr *expandFrame, mapped, probe uint16, vp int, vd graph.VertexID, wv int, out []graph.VertexID) (cands []graph.VertexID, proven uint16) {
	minDeg, floor := e.minDeg[wv], e.floor[wv]
	filters := minDeg > 0 || e.opts.DataLabels != nil // else hosts has nothing to test
	in := e.inWindow(ctx, e.g.Neighbors(vd), m, wv, mapped)
	// Bitset AND fast path: when vd is a hub and wv has other already-mapped
	// pattern neighbors that are hubs too, the candidate set is confined to the
	// word-wide AND of their adjacency rows — an exact intersection, so the
	// check against those neighbors is subsumed and proves the edge (non-hub
	// vertices have no row; admits still tests them). It is a strict filter:
	// every vertex it drops lacks a real edge to a mapped neighbor and would
	// have been pruned by verification, so counts are identical with the
	// switch off (the BenchmarkHotpath "w/o bitset" configuration).
	if rowVd := e.bitmap.Row(vd); rowVd != nil && !e.opts.disableBitsetAnd {
		var hubRows [maxPatternVertices][]uint64
		nHub := 0
		for mask := e.adjacent[wv] & mapped &^ (1 << uint(vp)); mask != 0; mask &= mask - 1 {
			u := bits.TrailingZeros16(mask)
			if r := e.bitmap.Row(m.Map[u]); r != nil {
				hubRows[nHub] = r
				nHub++
				proven |= 1 << uint(u)
			}
		}
		if nHub > 0 {
			ctx.Add(ctrBitsetAnd, 1)
			probe &^= proven
			if len(in) == 0 {
				return out, proven
			}
			e.openCursors(m, fr, probe)
			// Only the words between the window's first and last entry are
			// walked; the bits of vd's row between them are in's entries. The
			// word loop is inlined — no IterateSet closure — to keep the hot
			// path allocation-free.
			first, last := int(in[0]), int(in[len(in)-1])
			var below int64
			for i := first / 64; i <= last/64; i++ {
				word := rowVd[i]
				for _, r := range hubRows[:nHub] {
					word &= r[i]
				}
				if i == first/64 {
					word &= ^uint64(0) << uint(first%64)
				}
				if i == last/64 {
					word &= ^uint64(0) >> uint(63-last%64)
				}
				for ; word != 0; word &= word - 1 {
					d := graph.VertexID(i*64 + bits.TrailingZeros64(word))
					if d < floor {
						below++
					} else if (!filters || e.hosts(ctx, wv, minDeg, d)) && e.admits(ctx, m, fr, d, probe) {
						out = append(out, d)
					}
				}
			}
			ctx.Add(ctrPrunedDegree, below)
			return out, proven
		}
	}
	if len(in) > 0 && in[0] < floor {
		cut := graph.LowerBound(in, floor)
		ctx.Add(ctrPrunedDegree, int64(cut))
		in = in[cut:]
	}
	e.openCursors(m, fr, probe)
	for _, d := range in {
		if (!filters || e.hosts(ctx, wv, minDeg, d)) && e.admits(ctx, m, fr, d, probe) {
			out = append(out, d)
		}
	}
	return out, 0
}

// openCursors starts admits' cursors for the mapped neighbors in probe at the
// head of their images' rows.
func (e *engine) openCursors(m *gpsi, fr *expandFrame, probe uint16) {
	for mask := probe; mask != 0; mask &= mask - 1 {
		u := bits.TrailingZeros16(mask)
		fr.hub[u] = e.bitmap.Row(m.Map[u])
		fr.seek[u] = e.g.Neighbors(m.Map[u])
	}
}

// combine enumerates the cross product of fr's candidate sets from slot i
// on, pruning combinations that reuse a data vertex, violate the partial
// order between two newly mapped vertices, or lack a closing edge between two
// newly mapped vertices. Surviving children are finalized; in the last slot
// of a run that only counts (fr.leaf), the survivors are counted as results
// at once instead (the leaf count). Every combination looks at the halted
// flag first, so a cap hit inside a hub's cross product stops the enumeration
// there, not at the next message.
func (e *engine) combine(ctx *bsp.Context[gpsi], m *gpsi, fr *expandFrame, i int) {
	if i == fr.nw {
		e.finalize(ctx, m)
		return
	}
	wv := fr.whites[i]
	// closing is wv's edges to the vertices mapped earlier in this combine,
	// which candidate filtering could not see. A candidate list ascends in
	// rank (it is drawn from a sorted row or a bitset), so the order against
	// them is a window on it, and the exact test of a closing edge is a merge
	// along the fixed image's row — for a single closing edge and a long
	// window, an intersection (combineMeet).
	earlier := fr.earlier(i)
	closing := e.adjacent[wv] & earlier
	in := e.inWindow(ctx, fr.cands[i], m, wv, earlier)
	leaf := fr.leaf && i == fr.nw-1
	switch {
	case len(in) == 0:
		return // without opening a closing image's row
	case leaf && i == 0:
		// The only slot: nothing here refuses what candidates admitted.
		ctx.Add(ctrResults, int64(len(in)))
		return
	case closing != 0 && closing&(closing-1) == 0 && len(in) >= meetMinWindow:
		e.combineMeet(ctx, m, fr, i, in, bits.TrailingZeros16(closing), leaf)
		return
	}
	e.openRows(m, fr, wv, closing)
	var results int64
	for _, d := range in {
		if e.halted.Load() != 0 {
			break
		}
		if m.uses(d) {
			ctx.Add(ctrPrunedInjective, 1)
			continue
		}
		if !e.closes(ctx, fr, wv, closing, d) {
			continue
		}
		if leaf {
			results++
			continue
		}
		e.descend(ctx, m, fr, i, d)
	}
	if results > 0 {
		ctx.Add(ctrResults, results)
	}
}

// earlier is the set of vertices of the slots before i.
func (fr *expandFrame) earlier(i int) uint16 {
	earlier := uint16(0)
	for _, u := range fr.whites[:i] {
		earlier |= 1 << uint(u)
	}
	return earlier
}

// openRows starts combine's merge cursors for wv's closing edges to the
// images of the vertices in closing.
func (e *engine) openRows(m *gpsi, fr *expandFrame, wv int, closing uint16) {
	for mask := closing; mask != 0; mask &= mask - 1 {
		u := bits.TrailingZeros16(mask)
		fr.rows[e.edgeID[wv][u]] = e.g.Neighbors(m.Map[u])
	}
}

// closes reports, along combine's merge cursors, whether candidate d of wv's
// slot has every closing edge to the images of the vertices in closing,
// counting it pruned by verification when it has not.
func (e *engine) closes(ctx *bsp.Context[gpsi], fr *expandFrame, wv int, closing uint16, d graph.VertexID) bool {
	for mask := closing; mask != 0; mask &= mask - 1 {
		eid := e.edgeID[wv][bits.TrailingZeros16(mask)]
		row := graph.SeekRow(fr.rows[eid], d)
		fr.rows[eid] = row
		if len(row) == 0 || row[0] != d {
			ctx.Add(ctrPrunedVerify, 1)
			return false
		}
	}
	return true
}

// meetMinWindow is the shortest window combine intersects rather than tests
// candidate by candidate. The intersection pays a fixed price per slot visit
// (a search for each earlier image) that a short window does not earn back.
// serve-short's triangle counts have windows of 1-7 entries, and with every
// window intersected they ran ~20 % slower in process (2-core box, go1.24).
// list-compute's diamond has most candidates in windows of 64 or more and
// gains the same from any cut between 4 and 32.
const meetMinWindow = 8

// combineMeet is combine's slot i when wv has exactly one closing edge, to
// u's image dp, and the window in is long. A candidate survives iff it is in
// N(dp), so the window is walked as the intersection with dp's row
// (graph.Meet) instead of one test each, and children are built and sent in
// combine's order. A candidate the walk skips is counted in bulk before the
// next survivor: pruned by injectivity if it is an earlier slot's image, by
// verification otherwise, which is what combine would have counted by then.
// With leaf set, a survivor is counted as a result, as in combine.
func (e *engine) combineMeet(ctx *bsp.Context[gpsi], m *gpsi, fr *expandFrame, i int, in []graph.VertexID, u int, leaf bool) {
	// imgs are the earlier slots' images inside the window, ascending: the
	// candidates injectivity prunes. The images mapped before combine are
	// never candidates, as admits refused them.
	var imgs [maxPatternVertices]graph.VertexID
	nImg := 0
	for _, v := range fr.whites[:i] {
		x := m.Map[v]
		if j := graph.LowerBound(in, x); j == len(in) || in[j] != x {
			continue
		}
		k := nImg
		for ; k > 0 && imgs[k-1] > x; k-- {
			imgs[k] = imgs[k-1]
		}
		imgs[k] = x
		nImg++
	}
	// The counts are kept here and added once, on the way out; nothing looks
	// at them before the superstep ends.
	var injective, verify, results int64
	rest, row := in, e.g.Neighbors(m.Map[u])
	done, k := 0, 0 // in[:done] and imgs[:k] are accounted for
	for e.halted.Load() == 0 {
		rest, row = graph.Meet(rest, row)
		next := graph.VertexID(math.MaxInt32)
		if len(rest) > 0 {
			next = rest[0]
		}
		at, skipped := len(in)-len(rest), 0
		for ; k < nImg && imgs[k] < next; k++ {
			skipped++
		}
		injective += int64(skipped)
		verify += int64(at - done - skipped)
		if len(rest) == 0 {
			break
		}
		d := rest[0]
		rest, row, done = rest[1:], row[1:], at+1
		switch {
		case k < nImg && imgs[k] == d:
			k++
			injective++
		case leaf:
			results++
		default:
			e.descend(ctx, m, fr, i, d)
		}
	}
	for _, c := range [...]struct {
		id bsp.Counter
		n  int64
	}{{ctrPrunedInjective, injective}, {ctrPrunedVerify, verify}, {ctrResults, results}} {
		if c.n != 0 {
			ctx.Add(c.id, c.n)
		}
	}
}

// descend maps slot i's vertex to d and combines the slots after it.
func (e *engine) descend(ctx *bsp.Context[gpsi], m *gpsi, fr *expandFrame, i int, d graph.VertexID) {
	wv := fr.whites[i]
	m.Map[wv] = d
	e.combine(ctx, m, fr, i+1)
	m.Map[wv] = unmapped
}

// finalize either emits a completed instance or routes the Gpsi to its next
// expanding vertex, the GRAY one of least expandCost (chooseCheapest).
func (e *engine) finalize(ctx *bsp.Context[gpsi], m *gpsi) {
	if m.isComplete() {
		e.emit(ctx, m)
		return
	}
	sc := &e.scratch[ctx.Worker()]
	sc.grays = e.grayCandidates(m, sc.grays[:0]) // keep the grown buffer for the next Gpsi
	if len(sc.grays) == 0 {
		ctx.Abort(errStuck)
		return
	}
	e.route(ctx, m, e.chooseCheapest(m, sc.grays))
}

// emit delivers a completed instance: the EmitFilter, the result count, the
// OnInstance hook, Collect and the MaxResults cap.
func (e *engine) emit(ctx *bsp.Context[gpsi], m *gpsi) {
	if e.opts.EmitFilter != nil {
		// Hand the filter the reused per-worker buffer, not a view of m: a
		// direct m.Map slice would make every Gpsi on this path escape to
		// the heap (same reasoning as the OnInstance buffer below).
		sc := &e.scratch[ctx.Worker()]
		sc.emit = e.callerIDs(sc.emit[:0], m)
		if !e.opts.EmitFilter(sc.emit) {
			ctx.Add(ctrPrunedFilter, 1)
			return
		}
	}
	ctx.Add(ctrResults, 1)
	if e.opts.OnInstance != nil {
		// Hand out a reused per-worker buffer, not a view of m: the
		// callback may leak its argument, and a view would force every
		// Gpsi on this path to the heap. The OnInstance contract already
		// limits the slice's validity to the call.
		sc := &e.scratch[ctx.Worker()]
		sc.emit = e.callerIDs(sc.emit[:0], m)
		e.opts.OnInstance(sc.emit)
	}
	if e.opts.Collect {
		inst := e.callerIDs(make([]graph.VertexID, 0, m.N), m)
		e.mu.Lock()
		e.instances = append(e.instances, inst)
		e.mu.Unlock()
	}
	if e.opts.MaxResults > 0 && e.results.Add(1) >= e.opts.MaxResults {
		// The cap-hitting instance was already delivered above; every
		// worker stops at its next combination.
		if e.halted.CompareAndSwap(0, haltStopped) {
			ctx.Abort(errEarlyStop)
		}
	}
}

// route sends m, aimed at its next expanding vertex next, to the owner of
// that vertex's image as a new Gpsi. The child is copied once, into the chunk
// that carries it, and m goes back to combine as it came.
func (e *engine) route(ctx *bsp.Context[gpsi], m *gpsi, next int) {
	parent := m.Next
	m.Next = int8(next)
	ctx.Send(m.Map[next], *m)
	e.generate(ctx)
	m.Next = parent
}

// callerIDs appends m's mapping, in the caller's vertex ids, to dst.
func (e *engine) callerIDs(dst []graph.VertexID, m *gpsi) []graph.VertexID {
	if e.orig == nil {
		return append(dst, m.Map[:m.N]...)
	}
	for _, r := range m.Map[:m.N] {
		dst = append(dst, e.orig[r])
	}
	return dst
}

// grayCandidates appends to grays the GRAY vertices of m, the eligible next
// expansion points.
func (e *engine) grayCandidates(m *gpsi, grays []int) []int {
	for v := 0; v < e.p.N(); v++ {
		if m.isGray(v) {
			grays = append(grays, v)
		}
	}
	return grays
}

// generate accounts one new Gpsi against MaxIntermediate. Without a budget
// nothing needs the global total (the generated counter carries it), so no
// shared word is written.
func (e *engine) generate(ctx *bsp.Context[gpsi]) {
	ctx.Add(ctrGenerated, 1)
	if e.opts.MaxIntermediate > 0 && e.generated.Add(1) > e.opts.MaxIntermediate {
		e.halted.CompareAndSwap(0, haltOOM)
		ctx.Abort(ErrOutOfMemory)
	}
}

// engineState is the bsp.Snapshotter payload: every accumulator the engine
// keeps outside the BSP inboxes, and the identity of the run that took it.
// Only one memory domain checkpoints (the partitioned model refuses it,
// Prepared.check), and its routing is a function of the Gpsi, so the load
// accumulators are all a resumed run needs for LoadUnits and LoadMakespan to
// come out exactly-once — equal to a clean run's — across a stop and a
// resume.
type engineState struct {
	Run       runIdentity
	Loads     []float64
	StepLoads [][]float64
	Generated int64
}

// runIdentity is what a snapshot's Gpsis mean: the graph their vertex ids
// index, the planned pattern their maps, edge bits and order windows
// follow, and what decides where the run starts and which worker owns what.
// A snapshot is a file read from outside the program, so a run resumes only
// from a snapshot with its own identity; any other would panic on a pattern
// vertex out of range or count instances of another pattern or graph.
type runIdentity struct {
	Graph   uint64 // Fingerprint of the rank-space graph
	Pattern string // n, edges, order constraints and labels
	Initial int
	Seed    int64
	Seeds   uint64 // digest of Options.Seeds, in rank space
	Labels  uint64 // digest of Options.DataLabels, in rank space
}

// identity computes the run's identity once; SnapshotState and RestoreState
// run only at barriers, on one goroutine.
func (e *engine) identity() runIdentity {
	if e.id != nil {
		return *e.id
	}
	p := e.p
	labels := make([]int, p.N())
	for v := range labels {
		labels[v] = p.Label(v)
	}
	seeds, dataLabels := fnv.New64a(), fnv.New64a()
	var word [8]byte
	put := func(h hash.Hash64, x int64) {
		binary.LittleEndian.PutUint64(word[:], uint64(x))
		h.Write(word[:])
	}
	for _, sd := range e.opts.Seeds {
		put(seeds, int64(len(sd.PatternVertices)))
		for i, pv := range sd.PatternVertices {
			put(seeds, int64(pv))
			put(seeds, int64(sd.DataVertices[i]))
		}
	}
	put(dataLabels, int64(len(e.opts.DataLabels)))
	for _, l := range e.opts.DataLabels {
		put(dataLabels, int64(l))
	}
	e.id = &runIdentity{
		Graph:   e.g.Fingerprint(),
		Pattern: fmt.Sprintf("n=%d edges=%v orders=%v labels=%v", p.N(), e.pEdges, p.Orders(), labels),
		Initial: e.initial,
		Seed:    e.opts.Seed,
		Seeds:   seeds.Sum64(),
		Labels:  dataLabels.Sum64(),
	}
	return *e.id
}

// mismatch names what differs between a snapshot's identity and this run's,
// or returns "".
func (id runIdentity) mismatch(run runIdentity) string {
	switch {
	case id.Graph != run.Graph:
		return fmt.Sprintf("graph fingerprint %016x, this run's %016x", id.Graph, run.Graph)
	case id.Pattern != run.Pattern:
		return fmt.Sprintf("pattern %s, this run's %s", id.Pattern, run.Pattern)
	case id.Initial != run.Initial:
		return fmt.Sprintf("initial vertex %d, this run's %d", id.Initial, run.Initial)
	case id.Seed != run.Seed:
		return fmt.Sprintf("seed %d, this run's %d", id.Seed, run.Seed)
	case id.Seeds != run.Seeds:
		return "different Seeds"
	case id.Labels != run.Labels:
		return "different DataLabels"
	}
	return ""
}

// SnapshotState implements bsp.Snapshotter; it is called at barriers only,
// never concurrently with Init/Process.
func (e *engine) SnapshotState() ([]byte, error) {
	st := engineState{
		Run:       e.identity(),
		Loads:     e.loadUnits(),
		StepLoads: e.stepLoads,
		Generated: e.generated.Load(),
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&st); err != nil {
		return nil, fmt.Errorf("psgl: encode engine state: %w", err)
	}
	return buf.Bytes(), nil
}

// RestoreState implements bsp.Snapshotter. It refuses, with an error
// wrapping bsp.ErrCorruptCheckpoint, a snapshot without engine state and one
// taken by another run.
func (e *engine) RestoreState(data []byte) error {
	k := e.opts.Workers
	if data == nil {
		return fmt.Errorf("%w: the snapshot carries no engine state", bsp.ErrCorruptCheckpoint)
	}
	var st engineState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("%w: decode engine state: %v", bsp.ErrCorruptCheckpoint, err)
	}
	if diff := st.Run.mismatch(e.identity()); diff != "" {
		return fmt.Errorf("%w: taken by another run: %s", bsp.ErrCorruptCheckpoint, diff)
	}
	if len(st.Loads) != k || len(st.StepLoads) != k {
		return fmt.Errorf("%w: engine snapshot worker count mismatch (have %d workers)", bsp.ErrCorruptCheckpoint, k)
	}
	e.stepLoads = st.StepLoads
	for w := range e.scratch {
		e.scratch[w].load = st.Loads[w]
	}
	e.generated.Store(st.Generated)
	return nil
}

// loadUnits returns every worker's accumulated load units, by worker.
func (e *engine) loadUnits() []float64 {
	loads := make([]float64, len(e.scratch))
	for w := range e.scratch {
		loads[w] = e.scratch[w].load
	}
	return loads
}

func (e *engine) buildResult(rs *bsp.RunStats, wall time.Duration) *Result {
	st := Stats{
		Supersteps:        rs.Supersteps,
		InitialVertex:     e.initial,
		WorkerTime:        rs.WorkerTime,
		WorkerMessages:    rs.WorkerMessages,
		LoadUnits:         e.loadUnits(),
		PerStepMessages:   rs.PerStepMessages,
		SimulatedMakespan: rs.SimulatedMakespan(),
		WallTime:          wall,
	}
	for _, c := range engineCounters {
		*c.field(&st) = rs.Counters[c.name]
	}
	// The observer's logical view mirrors the same exactly-once accumulators
	// Stats is built from (the loads ride barrier snapshots).
	e.opts.Observer.RecordWorkerLoads(st.LoadUnits)
	// Load makespan (Equation 3 with the cost-model load units): sum over
	// supersteps of the heaviest worker's load. Deterministic and
	// independent of the physical core count.
	steps := 0
	for _, sl := range e.stepLoads {
		steps = max(steps, len(sl))
	}
	for s := 0; s < steps; s++ {
		max := 0.0
		for _, sl := range e.stepLoads {
			if s < len(sl) && sl[s] > max {
				max = sl[s]
			}
		}
		st.LoadMakespan += max
	}
	return &Result{
		Count:     st.Results,
		Instances: e.instances,
		Truncated: e.halted.Load() == haltStopped,
		Stats:     st,
	}
}
