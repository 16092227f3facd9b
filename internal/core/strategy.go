package core

import (
	"math"

	"psgl/internal/stats"
)

// chooseNext implements Algorithm 3: given the GRAY candidates of a freshly
// generated Gpsi, pick the next expanding pattern vertex (which fixes the
// destination worker, since the Gpsi travels to the owner of its mapped data
// vertex).
func (e *engine) chooseNext(worker int, m *gpsi, grays []int) int {
	if len(grays) == 1 {
		// Still account the load for the workload-aware view.
		if e.opts.Strategy == StrategyWorkloadAware {
			k := grays[0]
			e.charge(&e.scratch[worker], e.ownerOf(m.Map[k]), e.expandCost(m, k))
		}
		return grays[0]
	}
	switch e.opts.Strategy {
	case StrategyRoulette:
		return e.chooseRoulette(worker, m, grays)
	case StrategyWorkloadAware:
		return e.chooseWorkloadAware(worker, m, grays)
	default:
		return grays[e.scratch[worker].rng.intn(len(grays))]
	}
}

// charge adds cost to worker j's load in sc's workload-aware view and
// refreshes its power, the only place a view entry changes between restores.
func (e *engine) charge(sc *workerScratch, j int, cost float64) {
	sc.view[j] += cost
	sc.pow[j] = math.Pow(sc.view[j], e.opts.Alpha)
}

// expandCost is the cost-model estimate of expanding GRAY vertex k:
// w = C(deg(v_d), #WHITE neighbors of k), the upper bound on the number of
// child Gpsis (Section 5.1.1). Capped to keep the arithmetic finite.
func (e *engine) expandCost(m *gpsi, k int) float64 {
	whiteCount := 0
	for _, u := range e.p.Neighbors(k) {
		if !m.isMapped(u) {
			whiteCount++
		}
	}
	c := stats.Binomial(e.g.Degree(m.Map[k]), whiteCount)
	if math.IsInf(c, 1) || c > 1e15 {
		c = 1e15
	}
	if c < 1 {
		c = 1
	}
	return c
}

// chooseRoulette implements the roulette-wheel strategy of Section 5.1.2:
// GRAY vertex k is chosen with probability
// p_k = Π_{j≠k} deg(v_dj) / Σ_i Π_{j≠i} deg(v_dj), which simplifies to
// weights 1/deg(v_dk) — smaller-degree data vertices expand more Gpsis
// (Heuristic 1).
func (e *engine) chooseRoulette(worker int, m *gpsi, grays []int) int {
	var total float64
	sc := &e.scratch[worker]
	weights := sc.weights[:0]
	for _, k := range grays {
		d := e.g.Degree(m.Map[k])
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
func (e *engine) chooseWorkloadAware(worker int, m *gpsi, grays []int) int {
	sc := &e.scratch[worker]
	best, bestScore, bestCost := -1, math.Inf(1), 0.0
	for _, k := range grays {
		cost := e.expandCost(m, k)
		score := sc.pow[e.ownerOf(m.Map[k])] + cost
		if score < bestScore {
			best, bestScore, bestCost = k, score, cost
		}
	}
	e.charge(sc, e.ownerOf(m.Map[best]), bestCost)
	return best
}
