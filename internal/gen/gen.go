// Package gen generates synthetic data graphs. The paper's experiments need
// two graph families (Section 3): power-law graphs, whose skewed degree
// distribution drives the gains of the workload-aware strategy and of the
// initial-pattern-vertex rule, and Erdős–Rényi random graphs, where those
// gains mostly vanish. Since the original SNAP/KONECT datasets cannot be
// shipped, internal/datasets uses these generators to build analogues with
// matching power-law exponents.
//
// All generators are deterministic for a given seed.
package gen

import (
	"math"
	"math/rand"
	"sort"

	"psgl/internal/graph"
)

// ErdosRenyi generates a G(n, m) random graph: m distinct undirected edges
// chosen uniformly at random. The result may have slightly fewer than m edges
// if n is small relative to m (duplicates are merged), but for sparse graphs
// the deficit is negligible.
func ErdosRenyi(n int, m int64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	if n < 2 {
		return b.Build()
	}
	for i := int64(0); i < m; i++ {
		u := graph.VertexID(rng.Intn(n))
		v := graph.VertexID(rng.Intn(n))
		for u == v {
			v = graph.VertexID(rng.Intn(n))
		}
		b.AddEdge(u, v)
	}
	return b.Build()
}

// ChungLu generates a power-law graph with n vertices, approximately m
// undirected edges, and degree exponent gamma (p(d) ∝ d^-γ) by sampling edge
// endpoints proportionally to per-vertex weights w_i ∝ (i+i0)^(-1/(γ-1)).
// Lower gamma yields heavier hubs. Weights are capped so a single hub cannot
// absorb more than maxHubFraction of all endpoint draws, which keeps γ→1
// graphs (WikiTalk-like) generable.
func ChungLu(n int, m int64, gamma float64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	if n < 2 {
		return b.Build()
	}
	// Endpoint-share construction: half of the endpoint mass is spread
	// uniformly (populating the low-degree tail every real graph has), the
	// other half follows a power-law share curve z_i ∝ (i+1)^-τ with
	// τ = 1/(γ-1) (steeper τ = heavier hubs). A per-vertex cap bounds any
	// single hub at maxHubFraction of all draws — the finite-size cutoff
	// real γ<2 graphs exhibit — which keeps γ→1 requests generable.
	// maxHubFraction calibrates to real heavy-tailed graphs: WikiTalk's top
	// vertex touches ~0.5% of all edge endpoints; much above 1% a single
	// hub's expansion work dominates every parallel schedule and caps
	// scalability regardless of strategy.
	const (
		maxHubFraction = 0.01
		uniformShare   = 0.5
	)
	tau := 1.0 / (gamma - 1.0)
	if tau > 3 {
		tau = 3
	}
	if tau < 0.5 {
		tau = 0.5
	}
	var zsum float64
	for i := 0; i < n; i++ {
		zsum += math.Pow(float64(i+1), -tau)
	}
	weights := make([]float64, n)
	for i := range weights {
		s := uniformShare/float64(n) +
			(1-uniformShare)*math.Pow(float64(i+1), -tau)/zsum
		if s > maxHubFraction {
			s = maxHubFraction
		}
		weights[i] = s
	}
	// Cumulative sums for inverse-CDF sampling via binary search.
	cum := make([]float64, n)
	acc := 0.0
	for i, w := range weights {
		acc += w
		cum[i] = acc
	}
	draw := func() graph.VertexID {
		x := rng.Float64() * acc
		v := sort.SearchFloat64s(cum, x)
		if v >= n {
			v = n - 1
		}
		return graph.VertexID(v)
	}
	// Sample until m distinct edges (hub-to-hub pairs repeat often on skewed
	// weight curves), with an attempt cap so dense requests still terminate.
	seen := make(map[uint64]bool, m)
	attempts := int64(0)
	maxAttempts := 40 * m
	for int64(len(seen)) < m && attempts < maxAttempts {
		attempts++
		u, v := draw(), draw()
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		key := uint64(u)<<32 | uint64(uint32(v))
		if seen[key] {
			continue
		}
		seen[key] = true
		b.AddEdge(u, v)
	}
	return b.Build()
}

// BarabasiAlbert generates a preferential-attachment graph: each new vertex
// attaches k edges to existing vertices chosen proportionally to their
// current degree. Degree distribution follows a power law with γ ≈ 3.
func BarabasiAlbert(n, k int, seed int64) *graph.Graph {
	if k < 1 {
		k = 1
	}
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	if n < 2 {
		return b.Build()
	}
	// endpoints holds one entry per edge endpoint; sampling uniformly from it
	// is sampling proportionally to degree.
	endpoints := make([]graph.VertexID, 0, 2*int(int64(n)*int64(k)))
	// Seed with a (k+1)-clique (or smaller if n is tiny).
	seedSize := k + 1
	if seedSize > n {
		seedSize = n
	}
	for i := 0; i < seedSize; i++ {
		for j := i + 1; j < seedSize; j++ {
			b.AddEdge(graph.VertexID(i), graph.VertexID(j))
			endpoints = append(endpoints, graph.VertexID(i), graph.VertexID(j))
		}
	}
	// A vertex's targets attach in the order they are drawn (the map only
	// dedupes), so the endpoints later draws sample from, and the graph, are
	// fixed by the seed.
	chosen := make(map[graph.VertexID]bool, k)
	targets := make([]graph.VertexID, 0, k)
	for v := seedSize; v < n; v++ {
		clear(chosen)
		targets = targets[:0]
		for len(targets) < k {
			t := endpoints[rng.Intn(len(endpoints))]
			if int(t) != v && !chosen[t] {
				chosen[t] = true
				targets = append(targets, t)
			}
		}
		for _, t := range targets {
			b.AddEdge(graph.VertexID(v), t)
			endpoints = append(endpoints, graph.VertexID(v), t)
		}
	}
	return b.Build()
}

// RMAT generates a Kronecker-style R-MAT graph with 2^scale vertices and
// about m undirected edges, using quadrant probabilities (a, b, c, d) that
// must sum to 1. Classic parameters (0.57, 0.19, 0.19, 0.05) produce skewed,
// community-structured graphs similar to web/social networks (Twitter-like).
func RMAT(scale int, m int64, a, b, c, d float64, seed int64) *graph.Graph {
	if math.Abs(a+b+c+d-1) > 1e-9 {
		panic("gen: RMAT probabilities must sum to 1")
	}
	rng := rand.New(rand.NewSource(seed))
	n := 1 << scale
	bld := graph.NewBuilder(n)
	for i := int64(0); i < m; i++ {
		u, v := 0, 0
		for bit := 0; bit < scale; bit++ {
			r := rng.Float64()
			switch {
			case r < a:
				// top-left: no bits set
			case r < a+b:
				v |= 1 << bit
			case r < a+b+c:
				u |= 1 << bit
			default:
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		if u != v {
			bld.AddEdge(graph.VertexID(u), graph.VertexID(v))
		}
	}
	return bld.Build()
}
