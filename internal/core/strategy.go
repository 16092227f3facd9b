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
			w := e.expandCost(m, k)
			e.wviews[worker][e.ownerOf(m.Map[k])] += w
		}
		return grays[0]
	}
	switch e.opts.Strategy {
	case StrategyRoulette:
		return e.chooseRoulette(worker, m, grays)
	case StrategyWorkloadAware:
		return e.chooseWorkloadAware(worker, m, grays)
	default:
		return grays[e.rngs[worker].intn(len(grays))]
	}
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
	r := e.rngs[worker].float64v() * total
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
// the chosen worker's view.
func (e *engine) chooseWorkloadAware(worker int, m *gpsi, grays []int) int {
	view := e.wviews[worker]
	alpha := e.opts.Alpha
	best, bestScore, bestCost := -1, math.Inf(1), 0.0
	for _, k := range grays {
		j := e.ownerOf(m.Map[k])
		cost := e.expandCost(m, k)
		score := math.Pow(view[j], alpha) + cost
		if score < bestScore {
			best, bestScore, bestCost = k, score, cost
		}
	}
	view[e.ownerOf(m.Map[best])] += bestCost
	return best
}
