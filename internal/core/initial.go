package core

import (
	"math"
	"sort"

	"psgl/internal/pattern"
	"psgl/internal/stats"
)

// SelectInitialVertex picks the initial pattern vertex (Section 5.2.2).
// For cycles and cliques it applies the deterministic rule of Theorem 5: the
// lowest-rank vertex after automorphism breaking, whose outgoing '<'
// constraints force candidates into the balanced ns side of the ordered data
// graph (Property 1). For general patterns it minimizes the Algorithm 4 cost
// estimate over all pattern vertices; estimates within tieEpsilon of each
// other (symmetric vertices, whose float sums differ in the last bits) count
// as equal and the lowest vertex id wins, so the choice is a function of
// (pattern, distribution) alone.
func SelectInitialVertex(p *pattern.Pattern, dist *stats.Distribution) int {
	if p.IsCycle() || p.IsClique() {
		return p.LowestRankVertex()
	}
	const tieEpsilon = 1e-9
	best, bestCost := 0, math.Inf(1)
	for v := 0; v < p.N(); v++ {
		if c := EstimateInitialVertexCost(p, dist, v); c < bestCost*(1-tieEpsilon) {
			best, bestCost = v, c
		}
	}
	return best
}

// EstimateInitialVertexCost simulates the expansion from initial vertex vp
// over partial pattern graphs (Algorithm 4) and returns the expected total
// number of generated partial subgraph instances — the quantity Theorem 4
// shows the best initial vertex minimizes. The random distribution strategy
// is assumed (each GRAY vertex expands an equal share), and the expected
// fan-out of expanding a vertex with w WHITE neighbors at an unknown data
// vertex is f(v) = Σ_{d ≥ deg_p(v)} p(d)·C(d, w) over the data graph's
// degree distribution.
func EstimateInitialVertexCost(p *pattern.Pattern, dist *stats.Distribution, vp int) float64 {
	const cap = 1e18
	type key struct {
		mapped   uint16
		expanded uint16
	}
	n0 := float64(dist.Total())
	level := map[key]float64{{mapped: 1 << uint(vp)}: n0}
	total := n0
	for round := 0; round < p.N() && len(level) > 0; round++ {
		next := map[key]float64{}
		// Float addition is not associative: walk the states in key order so
		// total and next[child] accumulate the same way on every call.
		states := make([]key, 0, len(level))
		for st := range level {
			states = append(states, st)
		}
		sort.Slice(states, func(i, j int) bool {
			if states[i].mapped != states[j].mapped {
				return states[i].mapped < states[j].mapped
			}
			return states[i].expanded < states[j].expanded
		})
		for _, st := range states {
			cnt := level[st]
			var grays []int
			for v := 0; v < p.N(); v++ {
				if st.mapped&(1<<uint(v)) != 0 && st.expanded&(1<<uint(v)) == 0 {
					grays = append(grays, v)
				}
			}
			if len(grays) == 0 {
				continue
			}
			share := cnt / float64(len(grays))
			for _, v := range grays {
				child := st
				child.expanded |= 1 << uint(v)
				w := 0
				for _, u := range p.Neighbors(v) {
					if st.mapped&(1<<uint(u)) == 0 {
						w++
						child.mapped |= 1 << uint(u)
					}
				}
				produced := share * expectedFanout(p, dist, v, w)
				if produced > cap {
					produced = cap
				}
				total += produced
				if total > cap {
					total = cap
				}
				next[child] += produced
			}
		}
		level = next
	}
	return total
}

// expectedFanout is f(v) = Σ_{d ≥ deg_p(v)} p(d)·C(d, w).
func expectedFanout(p *pattern.Pattern, dist *stats.Distribution, v, w int) float64 {
	if w == 0 {
		// Verification-only expansion: at most one child survives.
		return 1
	}
	var f float64
	for d := p.Degree(v); d <= dist.Max(); d++ {
		pd := dist.P(d)
		if pd == 0 {
			continue
		}
		c := stats.Binomial(d, w)
		if math.IsInf(c, 1) {
			return 1e18
		}
		f += pd * c
		if f > 1e18 {
			return 1e18
		}
	}
	if f < 1 {
		f = 1
	}
	return f
}
