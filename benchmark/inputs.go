package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/url"

	"psgl/internal/gen"
	"psgl/internal/graph"
)

// graphSpec names a Chung–Lu power-law graph the way the repo's CLIs do.
type graphSpec struct {
	N     int
	M     int64
	Gamma float64
}

func (s graphSpec) String() string { return fmt.Sprintf("chunglu:%d:%d:%g", s.N, s.M, s.Gamma) }

func (s graphSpec) generate(seed int64) *graph.Graph { return gen.ChungLu(s.N, s.M, s.Gamma, seed) }

// deriveSeed turns the run's -seed into an independent positive seed per
// input stream (query order, update batches), so two streams never share
// random draws and every generated input is a function of -seed.
func deriveSeed(seed int64, stream string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, stream)
	x := h.Sum64()
	// splitmix64 finalizer: spreads neighbouring seeds apart.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x>>33) + 1
}

// query is one entry of the served traffic mix.
type query struct {
	Pattern   string
	CountOnly bool
	Limit     int // stream queries only
	Weight    int // share of the mix, in percent
}

func (q query) String() string {
	if q.CountOnly {
		return q.Pattern + "&count_only=1"
	}
	return fmt.Sprintf("%s&limit=%d", q.Pattern, q.Limit)
}

func (q query) path() string {
	v := url.Values{"pattern": {q.Pattern}}
	if q.CountOnly {
		v.Set("count_only", "1")
	} else {
		v.Set("limit", fmt.Sprint(q.Limit))
	}
	return "/query?" + v.Encode()
}

// serveMix is the short-query traffic of the serve-* workloads: two spellings
// of the triangle count (the second hits the plan cache through the canonical
// key) and three limit-bounded streams.
var serveMix = []query{
	{Pattern: "triangle", CountOnly: true, Weight: 40},
	{Pattern: "edges(0-1,1-2,2-0)", CountOnly: true, Weight: 15},
	{Pattern: "path(3)", Limit: 10, Weight: 20},
	{Pattern: "star(3)", Limit: 50, Weight: 15},
	{Pattern: "cycle(3)", Limit: 100, Weight: 10},
}

// queryOrder draws n indices into mix by weight.
func queryOrder(mix []query, seed int64, n int) []int {
	total := 0
	for _, q := range mix {
		total += q.Weight
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, n)
	for i := range out {
		x := rng.Intn(total)
		for j, q := range mix {
			if x < q.Weight {
				out[i] = j
				break
			}
			x -= q.Weight
		}
	}
	return out
}

// edgeModel is the benchmark's own record of the served graph's edge set. It
// generates update batches that always change the graph (removals of present
// edges, additions of absent ones) and rebuilds the expected graph after any
// number of batches without going through the program's overlay.
type edgeModel struct {
	n      int
	edges  [][2]graph.VertexID
	index  map[[2]graph.VertexID]int
	degree []int
}

// maxRemovalDegreeProduct keeps edges joining two hubs out of the update
// stream. On the serve graph a tenth of uniformly drawn edges have a degree
// product above ~1400, and removing one costs 0.3 s on average (up to 1 s) in
// diamond expansions against 26 ms for any other batch; with them in, the
// update rate swung by 20 % between seeds. serve-update is about the fixed
// costs of the write path; expansion cost is list-compute's subject.
const maxRemovalDegreeProduct = 1024

func newEdgeModel(g *graph.Graph) *edgeModel {
	m := &edgeModel{n: g.NumVertices(), index: make(map[[2]graph.VertexID]int, g.NumEdges()), degree: make([]int, g.NumVertices())}
	g.Edges(func(u, v graph.VertexID) bool {
		m.add(normEdge(u, v))
		return true
	})
	return m
}

func normEdge(u, v graph.VertexID) [2]graph.VertexID {
	if u > v {
		u, v = v, u
	}
	return [2]graph.VertexID{u, v}
}

func (m *edgeModel) add(e [2]graph.VertexID) {
	m.index[e] = len(m.edges)
	m.edges = append(m.edges, e)
	m.degree[e[0]]++
	m.degree[e[1]]++
}

func (m *edgeModel) remove(e [2]graph.VertexID) {
	i := m.index[e]
	last := m.edges[len(m.edges)-1]
	m.edges[i] = last
	m.index[last] = i
	m.edges = m.edges[:len(m.edges)-1]
	delete(m.index, e)
	m.degree[e[0]]--
	m.degree[e[1]]--
}

// apply replays a batch (removals first, like the overlay).
func (m *edgeModel) apply(b graph.Batch) {
	for _, e := range b.Remove {
		m.remove(normEdge(e[0], e[1]))
	}
	for _, e := range b.Add {
		m.add(normEdge(e[0], e[1]))
	}
}

// nextBatch draws size/2 removals of present edges (none joining two hubs) and
// the rest as additions of absent edges, and applies them to the model.
func (m *edgeModel) nextBatch(rng *rand.Rand, size int) graph.Batch {
	var b graph.Batch
	picked := map[[2]graph.VertexID]bool{}
	for len(b.Remove) < size/2 {
		e := m.edges[rng.Intn(len(m.edges))]
		if picked[e] || m.degree[e[0]]*m.degree[e[1]] > maxRemovalDegreeProduct {
			continue
		}
		picked[e] = true
		b.Remove = append(b.Remove, e)
	}
	for len(b.Add) < size-size/2 {
		u, v := graph.VertexID(rng.Intn(m.n)), graph.VertexID(rng.Intn(m.n))
		e := normEdge(u, v)
		if _, present := m.index[e]; u == v || present || picked[e] {
			continue
		}
		picked[e] = true
		b.Add = append(b.Add, e)
	}
	m.apply(b)
	return b
}

func (m *edgeModel) graph() *graph.Graph { return graph.FromEdges(m.n, m.edges) }

// updateBatches pre-generates the run's update stream against a model of g.
func updateBatches(g *graph.Graph, seed int64, n, size int) []graph.Batch {
	m := newEdgeModel(g)
	rng := rand.New(rand.NewSource(seed))
	out := make([]graph.Batch, n)
	for i := range out {
		out[i] = m.nextBatch(rng, size)
	}
	return out
}
