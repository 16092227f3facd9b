package core

// The paper's vertex-partitioned model (Section 5), the program of every run
// on a PreparePartitioned state, strict, in process and unresumed: its own
// expansion over the run's engine, whose window and row helpers, seeding,
// emit path and hub-bitset candidate draw it shares. A worker checks a closing
// edge exactly only when it owns an endpoint, asks the light-weight edge
// index otherwise, and leaves the edges the index passes pending, for a
// verification hop; the strategy picks the next expanding vertex, and with it
// the worker.

import (
	"math"
	"math/bits"
	"slices"

	"psgl/internal/bloom"
	"psgl/internal/bsp"
	"psgl/internal/graph"
)

// model is the partitioned model as PreparePartitioned sets it up: the edge
// index (nil in the w/o-index ablation) and the distribution strategy, at
// alpha for the workload-aware one. A Prepared in one memory domain has none.
type model struct {
	ix       *bloom.EdgeIndex
	strategy Strategy
	alpha    float64
}

// patched is m for its graph plus added (rank space): the index, if any, is a
// copy of m's with the added edges ORed in. nil stays nil.
func (m *model) patched(added [][2]graph.VertexID) *model {
	if m == nil {
		return nil
	}
	c := *m
	if m.ix != nil {
		c.ix = m.ix.Patched(added)
	}
	return &c
}

// indexBytes is the edge index's footprint: 0 without one, and for a nil m.
func (m *model) indexBytes() int64 {
	if m == nil || m.ix == nil {
		return 0
	}
	return m.ix.SizeBytes()
}

// partitioned is one run of the model: the run's engine, the model, and each
// worker's scratch for what the model adds.
type partitioned struct {
	*engine
	*model
	local []modelScratch
}

// modelScratch is worker w's scratch beyond its engine scratch. pend[i] is
// the set of slot i's mapped neighbors whose edge to a candidate stays pending
// unless the worker owns the candidate. rng, weights, view and pow serve the
// strategies: view is the worker's workload-aware local view of every
// worker's load and pow[j] = view[j]^alpha, recomputed at each charge; both
// are nil under the other strategies.
type modelScratch struct {
	pend      [maxPatternVertices]uint16
	weights   []float64
	rng       xorshift
	view, pow []float64

	_ [64]byte // keeps the next worker's scratch off this one's last cache line
}

// program is the bsp.Program a run of e on pr executes, the run's one model
// choice: e in one memory domain, the partitioned model over e otherwise.
func (pr *Prepared) program(e *engine) bsp.Program[gpsi] {
	if pr.paper == nil {
		return e
	}
	k := e.opts.Workers
	pe := &partitioned{engine: e, model: pr.paper, local: make([]modelScratch, k)}
	for w := range pe.local {
		sc := &pe.local[w]
		sc.rng = *newXorshift(uint64(e.opts.Seed)*0x9e3779b97f4a7c15 + uint64(w) + 1)
		if pe.strategy == StrategyWorkloadAware {
			// view and pow share one allocation of whole cache lines.
			vp := make([]float64, 2*k, (2*k+7)&^7)
			sc.view, sc.pow = vp[:k:k], vp[k:2*k:2*k]
		}
	}
	return pe
}

// Init is the engine's initialization phase with the model's expansion.
func (pe *partitioned) Init(ctx *bsp.Context[gpsi]) { pe.seed(ctx, pe.expand) }

// Process expands one Gpsi: the model runs strict, so no seed cursor comes.
func (pe *partitioned) Process(ctx *bsp.Context[gpsi], env bsp.Envelope[gpsi]) {
	pe.expand(ctx, env.Msg)
}

// reads reports whether worker w checks an edge at data vertex d exactly,
// along d's row: when w owns d, and with the edge index off never, as in the
// paper's ablation.
func (pe *partitioned) reads(d graph.VertexID, w int) bool {
	return pe.ix != nil && pe.ownerOf(d) == w
}

// expand is Algorithm 1 for one Gpsi: the engine's expand, after verifying
// the pending edges this worker can, with the partition's closing-edge checks
// (admitsRest) and each slot's pending edges.
func (pe *partitioned) expand(ctx *bsp.Context[gpsi], m gpsi) {
	if pe.halted.Load() != 0 {
		return
	}
	ctx.Add(ctrProcessed, 1)
	w := ctx.Worker()
	vp := int(m.Next)
	vd := m.Map[vp]
	m.Expanded |= 1 << uint(vp)
	mapped := m.mappedMask()
	// own is the set of mapped vertices whose adjacency this worker may
	// consult: vp's, and every one whose image's row it reads.
	own := uint16(1) << uint(vp)
	for v, d := range m.Map[:m.N] {
		if d != unmapped && pe.reads(d, w) {
			own |= 1 << uint(v)
		}
	}
	// Verify exactly every pending edge with an endpoint in own (the
	// "verification" role of later iterations; for cliques this is all the
	// later iterations do).
	for pend := m.Pending; pend != 0; pend &= pend - 1 {
		eid := bits.TrailingZeros32(pend)
		a, b := pe.pEdges[eid][0], pe.pEdges[eid][1]
		if own&(1<<uint(a)|1<<uint(b)) == 0 {
			continue
		}
		if !pe.bitmap.HasEdge(m.Map[a], m.Map[b]) {
			ctx.Add(ctrPrunedVerify, 1)
			return
		}
		m.Pending &^= 1 << uint(eid)
	}
	fr, sc := &pe.scratch[w].frame, &pe.local[w]
	fr.nw = 0
	loadUnits := 1.0
	for _, wv := range pe.p.Neighbors(vp) {
		if mapped&(1<<uint(wv)) != 0 {
			continue
		}
		// closing is wv's mapped neighbors other than vp. With the index their
		// edges to a candidate are checked here (probe), and only those that
		// went to the bloom stay pending — for a candidate whose row this
		// worker does not read, which combine decides; without it all wait.
		closing, probe := pe.adjacent[wv]&mapped&^(1<<uint(vp)), uint16(0)
		if pe.ix != nil {
			probe = closing
		}
		cand, proven := pe.candidates(ctx, &m, fr, mapped, probe&own, vp, vd, wv, fr.cands[fr.nw][:0])
		cand = pe.admitsRest(ctx, &m, fr, cand, probe&^own&^proven)
		fr.cands[fr.nw] = cand
		if len(cand) == 0 {
			return // dead end: this Gpsi leads to no instance
		}
		fr.whites[fr.nw] = wv
		sc.pend[fr.nw] = closing
		if pe.ix != nil {
			sc.pend[fr.nw] &^= proven | own
		}
		fr.nw++
		loadUnits *= float64(len(cand))
	}
	pe.account(ctx, loadUnits)
	pe.combine(ctx, &m, fr, 0)
}

// admitsRest is the rest of admits for the candidates that passed the
// engine's: their closing edges to the mapped vertices in rest, whose images'
// rows this worker does not read, are checked exactly for a candidate it
// owns and by the edge index otherwise. cands is filtered in place.
func (pe *partitioned) admitsRest(ctx *bsp.Context[gpsi], m *gpsi, fr *expandFrame, cands []graph.VertexID, rest uint16) []graph.VertexID {
	if rest == 0 {
		return cands
	}
	pe.openCursors(m, fr, rest)
	w, out := ctx.Worker(), cands[:0]
next:
	for _, d := range cands {
		exact := pe.reads(d, w)
		for mask := rest; mask != 0; mask &= mask - 1 {
			u := bits.TrailingZeros16(mask)
			if exact {
				if !fr.adjacent(u, d) {
					ctx.Add(ctrPrunedVerify, 1)
					continue next
				}
				continue
			}
			ctx.Add(ctrIndexQueries, 1)
			if !pe.ix.MayHaveEdge(d, m.Map[u]) {
				ctx.Add(ctrPrunedIndex, 1)
				continue next
			}
		}
		out = append(out, d)
	}
	return out
}

// combine is the engine's combine one candidate at a time, with the
// partition's checks: a closing edge between two newly mapped vertices is
// checked exactly when this worker reads either image's row, by the edge
// index otherwise, and left pending without the index. A survivor carries the
// edges the index passed, and its slot's pend unless the worker reads the
// candidate's row, as pending.
func (pe *partitioned) combine(ctx *bsp.Context[gpsi], m *gpsi, fr *expandFrame, i int) {
	if i == fr.nw {
		pe.finalize(ctx, m)
		return
	}
	wv, w := fr.whites[i], ctx.Worker()
	earlier := fr.earlier(i)
	closing := pe.adjacent[wv] & earlier
	pend := pe.local[w].pend[i]
	pe.openRows(m, fr, wv, closing)
	for _, d := range pe.inWindow(ctx, fr.cands[i], m, wv, earlier) {
		if pe.halted.Load() != 0 {
			break
		}
		if m.uses(d) {
			ctx.Add(ctrPrunedInjective, 1)
			continue
		}
		// Whether the worker reads d's row is asked only when an edge depends
		// on it.
		ownD := closing|pend != 0 && pe.reads(d, w)
		ok := true
		var newPending uint32
		for mask := closing; mask != 0 && ok; mask &= mask - 1 {
			u := bits.TrailingZeros16(mask)
			eid := pe.edgeID[wv][u]
			if ownD || pe.reads(m.Map[u], w) {
				row := graph.SeekRow(fr.rows[eid], d)
				fr.rows[eid], ok = row, len(row) > 0 && row[0] == d
				if !ok {
					ctx.Add(ctrPrunedVerify, 1)
				}
				continue
			}
			if pe.ix != nil {
				ctx.Add(ctrIndexQueries, 1)
				if ok = pe.ix.MayHaveEdge(d, m.Map[u]); !ok {
					ctx.Add(ctrPrunedIndex, 1)
					continue
				}
			}
			newPending |= 1 << uint(eid)
		}
		if !ok {
			continue
		}
		if !ownD {
			for mask := pend; mask != 0; mask &= mask - 1 {
				newPending |= 1 << uint(pe.edgeID[wv][bits.TrailingZeros16(mask)])
			}
		}
		m.Map[wv] = d
		m.Pending |= newPending
		pe.combine(ctx, m, fr, i+1)
		m.Pending &^= newPending
		m.Map[wv] = unmapped
	}
}

// finalize either emits a completed, fully verified instance or routes the
// Gpsi to its next expanding vertex, which the strategy picks (chooseNext).
func (pe *partitioned) finalize(ctx *bsp.Context[gpsi], m *gpsi) {
	if m.isComplete() && m.Pending == 0 {
		pe.emit(ctx, m)
		return
	}
	w := ctx.Worker()
	sc := &pe.scratch[w]
	sc.grays = pe.grayCandidates(m, sc.grays[:0]) // keep the grown buffer for the next Gpsi
	if len(sc.grays) == 0 {
		ctx.Abort(errStuck)
		return
	}
	pe.route(ctx, m, pe.chooseNext(w, m, sc.grays))
}

// grayCandidates is the engine's, except for a complete Gpsi with pending
// edges: only endpoints of those make progress on verification, so the
// choice narrows to them.
func (pe *partitioned) grayCandidates(m *gpsi, grays []int) []int {
	if m.isComplete() && m.Pending != 0 {
		for eid, edge := range pe.pEdges {
			if m.Pending&(1<<uint(eid)) == 0 {
				continue
			}
			for _, v := range edge {
				if m.isGray(v) && !slices.Contains(grays, v) {
					grays = append(grays, v)
				}
			}
		}
		if len(grays) > 0 {
			return grays
		}
	}
	return pe.engine.grayCandidates(m, grays)
}

// chooseNext implements Algorithm 3 in the partitioned model: given the GRAY
// candidates of a freshly generated Gpsi, the run's Strategy picks the next
// expanding pattern vertex, and with it the worker the Gpsi travels to, the
// owner of that vertex's image.
func (pe *partitioned) chooseNext(worker int, m *gpsi, grays []int) int {
	sc := &pe.local[worker]
	if len(grays) == 1 {
		// Still account the load for the workload-aware view.
		if pe.strategy == StrategyWorkloadAware {
			k := grays[0]
			pe.charge(sc, pe.ownerOf(m.Map[k]), pe.expandCost(m, k))
		}
		return grays[0]
	}
	switch pe.strategy {
	case StrategyRoulette:
		return pe.chooseRoulette(sc, m, grays)
	case StrategyWorkloadAware:
		return pe.chooseWorkloadAware(sc, m, grays)
	default:
		return grays[sc.rng.intn(len(grays))]
	}
}

// charge adds cost to worker j's load in sc's workload-aware view and
// refreshes its power, the only place a view entry changes.
func (pe *partitioned) charge(sc *modelScratch, j int, cost float64) {
	sc.view[j] += cost
	sc.pow[j] = math.Pow(sc.view[j], pe.alpha)
}

// chooseRoulette implements the roulette-wheel strategy of Section 5.1.2:
// GRAY vertex k is chosen with probability
// p_k = Π_{j≠k} deg(v_dj) / Σ_i Π_{j≠i} deg(v_dj), which simplifies to
// weights 1/deg(v_dk) — smaller-degree data vertices expand more Gpsis
// (Heuristic 1).
func (pe *partitioned) chooseRoulette(sc *modelScratch, m *gpsi, grays []int) int {
	var total float64
	weights := sc.weights[:0]
	for _, k := range grays {
		d := pe.g.Degree(m.Map[k])
		if d < 1 {
			d = 1
		}
		w := 1 / float64(d)
		weights = append(weights, w)
		total += w
	}
	sc.weights = weights // keep the grown buffer for the next draw
	r := sc.rng.float64v() * total
	for i, w := range weights {
		if r <= w {
			return grays[i]
		}
		r -= w
	}
	return grays[len(grays)-1]
}

// chooseWorkloadAware implements the workload-aware strategy of Section
// 5.1.1: pick argmin_k { W_j^α + w_ik } where j = owner(map(k)), using this
// worker's local view of every worker's accumulated load (the paper keeps
// the view local to avoid global synchronization, Section 6), then charge
// the chosen worker's view. W_j^α is read from the worker's powers, which
// only a charge changes.
func (pe *partitioned) chooseWorkloadAware(sc *modelScratch, m *gpsi, grays []int) int {
	best, bestScore, bestCost := -1, math.Inf(1), 0.0
	for _, k := range grays {
		cost := pe.expandCost(m, k)
		score := sc.pow[pe.ownerOf(m.Map[k])] + cost
		if score < bestScore {
			best, bestScore, bestCost = k, score, cost
		}
	}
	pe.charge(sc, pe.ownerOf(m.Map[best]), bestCost)
	return best
}

// xorshift is a tiny per-worker PRNG; math/rand would work but this keeps the
// strategies' path allocation- and lock-free with reproducible streams.
type xorshift struct{ state uint64 }

func newXorshift(seed uint64) *xorshift {
	if seed == 0 {
		seed = 0x2545f4914f6cdd1d
	}
	return &xorshift{state: seed}
}

func (x *xorshift) next() uint64 {
	s := x.state
	s ^= s << 13
	s ^= s >> 7
	s ^= s << 17
	x.state = s
	return s
}

// intn returns a uniform value in [0, n) via Lemire's multiply-shift with
// rejection — unlike the naive next()%n, the distribution carries no modulo
// bias toward low indices for non-power-of-two n.
func (x *xorshift) intn(n int) int {
	v := uint64(n)
	hi, lo := bits.Mul64(x.next(), v)
	if lo < v {
		// Reject the draws that land in the short final interval.
		thresh := -v % v
		for lo < thresh {
			hi, lo = bits.Mul64(x.next(), v)
		}
	}
	return int(hi)
}

// float64v returns a uniform value in [0, 1).
func (x *xorshift) float64v() float64 {
	return float64(x.next()>>11) / float64(1<<53)
}
