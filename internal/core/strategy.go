package core

import (
	"fmt"
	"math"

	"psgl/internal/stats"
)

// Strategy selects how a new partial subgraph instance chooses its next
// expanding vertex — and therefore which worker receives it — in the paper's
// partitioned model (Section 5.1), where the worker that expands a vertex is
// the owner of its image. PreparePartitioned takes it; one memory domain has
// no strategy (see chooseCheapest).
type Strategy int

const (
	// StrategyWorkloadAware picks the GRAY vertex minimizing W_j^α + w_ij
	// over each worker's local view of all workers' accumulated load, with
	// w_ij = C(deg(v_d), #WHITE neighbors) (Section 5.1.1). α = 0.5 is the
	// paper's recommended balance/greed trade-off (Theorem 3).
	StrategyWorkloadAware Strategy = iota
	// StrategyRandom picks a GRAY vertex uniformly at random.
	StrategyRandom
	// StrategyRoulette picks GRAY vertex k with probability inversely
	// proportional to deg(map(k)) (Equation 6): high-degree data vertices
	// expand fewer Gpsis (Heuristic 1).
	StrategyRoulette
)

// String names the strategy the way the paper's figures do.
func (s Strategy) String() string {
	if names := [...]string{"WA", "Random", "Roulette"}; s >= 0 && int(s) < len(names) {
		return names[s]
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// chooseCheapest is Algorithm 3 in one memory domain: given the GRAY
// candidates of a freshly generated Gpsi, it picks the next expanding pattern
// vertex, and the Gpsi travels to the owner of that vertex's image. Any
// worker takes any row, so the pick decides only the work, and the owner of
// the image only the balance: it is the GRAY vertex of least expandCost, ties
// to the lowest pattern vertex, a function of the Gpsi alone, so Gpsi counts
// do not depend on the worker count, the policy or the processing order. A
// single candidate costs nothing.
func (e *engine) chooseCheapest(m *gpsi, grays []int) int {
	best := grays[0]
	if len(grays) == 1 {
		return best
	}
	bestCost := e.expandCost(m, best)
	for _, k := range grays[1:] {
		if cost := e.expandCost(m, k); cost < bestCost || cost == bestCost && k < best {
			best, bestCost = k, cost
		}
	}
	return best
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
