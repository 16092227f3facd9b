package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"psgl/internal/bsp"
	"psgl/internal/centralized"
	"psgl/internal/gen"
	"psgl/internal/graph"
	"psgl/internal/pattern"
)

// rankOf returns caller vertex v's id in e's rank space, by search.
func (e *engine) rankOf(v graph.VertexID) graph.VertexID {
	for r, o := range e.orig {
		if o == v {
			return graph.VertexID(r)
		}
	}
	return v
}

// TestIdentityOrderStatsPinned pins what an identity-order run of the
// partitioned model reports, with and without the edge index, in process
// (the model's one transport): everything in Stats but
// the clocks and the three counters whose split depends on the order in which
// a candidate's filters run (pruned_by_order, pruned_by_injectivity,
// pruned_by_degree). Under the identity order a rank is the caller's id, so
// evaluating the partial order as a window on the sorted row instead of per
// candidate may move only those three; Gpsi counts, supersteps, index
// queries, verify prunes, messages per step and loads stay bit-identical.
// The values were re-recorded, with no engine change, when withoutClocks
// began to name the hashed fields one by one, and once when seeds began to be
// expanded where Init builds them (only Supersteps, PerStepMessages and
// WorkerMessages moved).
func TestIdentityOrderStatsPinned(t *testing.T) {
	rows := []struct {
		seed    int64
		noIndex bool
		want    uint64
	}{
		{1, false, 0xc5ea5ceb71434bfc},
		{1, true, 0x3c7efe37081fa83a},
		{2, false, 0x5ab87a5d98920066},
		{2, true, 0x839959aad836ae51},
	}
	patterns := []*pattern.Pattern{
		pattern.PG1(), pattern.PG2(), pattern.PG3(), pattern.PG4(), pattern.PG5(),
	}
	for _, row := range rows {
		g := gen.ChungLu(70, 300, 2.3, row.seed)
		opts := Options{Workers: 4, Seed: row.seed, IdentityOrder: true}
		bits := BloomBitsPerEdge
		if row.noIndex {
			bits = 0
		}
		h := fnv.New64a()
		for _, p := range patterns {
			for _, strat := range strategies {
				res, err := PreparePartitioned(g, opts, bits, strat, 0.5).RunContext(context.Background(), p, opts)
				if err != nil {
					t.Fatal(err)
				}
				st := res.Stats
				st.PrunedByOrder, st.PrunedByInjectivity, st.PrunedByDegree = 0, 0, 0
				fmt.Fprintf(h, "%d %s\n", res.Count, withoutClocks(st))
			}
		}
		if got := h.Sum64(); got != row.want {
			t.Errorf("seed %d noIndex=%v: identity-order stats fingerprint %#x, want %#x",
				row.seed, row.noIndex, got, row.want)
		}
	}
}

// hubAtZero is a skewed graph whose vertex 0 is its top hub, so the degree
// order ranks it last and the relabel is far from the identity.
func hubAtZero() *graph.Graph {
	base := gen.ChungLu(200, 800, 2.0, 9)
	b := graph.NewBuilder(base.NumVertices())
	base.Edges(func(u, v graph.VertexID) bool {
		b.AddEdge(u, v)
		return true
	})
	for v := 1; v < base.NumVertices(); v += 2 {
		b.AddEdge(0, graph.VertexID(v))
	}
	return b.Build()
}

// sortedKeys renders embeddings as sorted embedding keys.
func sortedKeys(embs [][]graph.VertexID) []string {
	keys := make([]string, len(embs))
	for i, m := range embs {
		keys[i] = embeddingKey(m)
	}
	sort.Strings(keys)
	return keys
}

// TestCallerIDsAcrossTheRelabel: the engine runs on ranks, yet everything a
// caller hands in (Seeds, DataLabels) or gets back (EmitFilter, OnInstance,
// Collect, Result.Instances) is in caller ids. Embeddings equal the oracle's
// byte for byte — both break symmetry by the same degree order — and an
// identity-order run's as vertex sets.
func TestCallerIDsAcrossTheRelabel(t *testing.T) {
	g := hubAtZero()
	opts := Options{Workers: 3, Seed: 2}
	pr := Prepare(g, opts)
	if n := g.NumVertices(); pr.orig[n-1] != 0 {
		t.Fatalf("vertex 0 should rank last, rank %d holds %d", n-1, pr.orig[n-1])
	}
	hasHub := func(m []graph.VertexID) bool { return slices.Contains(m, 0) }
	for _, p := range []*pattern.Pattern{pattern.PG1(), pattern.PG2(), pattern.PG3()} {
		want := oracleEmbeddings(p, g)
		var kept []string // the oracle's embeddings without vertex 0
		centralized.ListInstances(p.BreakAutomorphisms(), g, func(m []graph.VertexID) bool {
			if !hasHub(m) {
				kept = append(kept, embeddingKey(m))
			}
			return true
		})
		sort.Strings(kept)

		var mu sync.Mutex
		var filtered, streamed [][]graph.VertexID
		o := opts
		o.Collect = true
		o.EmitFilter = func(m []graph.VertexID) bool {
			mu.Lock()
			defer mu.Unlock()
			filtered = append(filtered, slices.Clone(m))
			return !hasHub(m)
		}
		o.OnInstance = func(m []graph.VertexID) {
			mu.Lock()
			defer mu.Unlock()
			streamed = append(streamed, slices.Clone(m))
		}
		res, err := pr.RunContext(context.Background(), p, o)
		if err != nil {
			t.Fatal(err)
		}
		if got := sortedKeys(filtered); !slices.Equal(got, want) {
			t.Errorf("%s: EmitFilter saw %d embeddings, not the oracle's %d", p.Name(), len(got), len(want))
		}
		if got := sortedKeys(streamed); !slices.Equal(got, kept) {
			t.Errorf("%s: OnInstance streamed %d embeddings, want the oracle's %d without vertex 0", p.Name(), len(got), len(kept))
		}
		if got := sortedKeys(res.Instances); !slices.Equal(got, kept) || res.Count != int64(len(kept)) {
			t.Errorf("%s: collected %d (count %d), want the oracle's %d without vertex 0", p.Name(), len(got), res.Count, len(kept))
		}

		id, err := Run(g, p, Options{Workers: 3, Seed: 2, IdentityOrder: true, Collect: true})
		if err != nil {
			t.Fatal(err)
		}
		asSets := func(embs [][]graph.VertexID) []string {
			sets := make([][]graph.VertexID, len(embs))
			for i, m := range embs {
				sets[i] = slices.Clone(m)
				slices.Sort(sets[i])
			}
			return sortedKeys(sets)
		}
		var all [][]graph.VertexID
		centralized.ListInstances(p.BreakAutomorphisms(), g, func(m []graph.VertexID) bool {
			all = append(all, slices.Clone(m))
			return true
		})
		if !slices.Equal(asSets(id.Instances), asSets(all)) {
			t.Errorf("%s: the identity order finds other vertex sets than the degree order", p.Name())
		}
	}

	// Seeds pin caller ids: every (hub edge, pattern edge, orientation) seed
	// completes to exactly the oracle's embeddings that agree with its pins.
	for _, p := range []*pattern.Pattern{pattern.PG1(), pattern.PG3()} {
		var all [][]graph.VertexID
		centralized.ListInstances(p.BreakAutomorphisms(), g, func(m []graph.VertexID) bool {
			all = append(all, slices.Clone(m))
			return true
		})
		o := opts
		o.Collect = true
		var want []string
		for _, u := range g.Neighbors(0) {
			for _, pe := range p.Edges() {
				for _, pins := range [][2]graph.VertexID{{0, u}, {u, 0}} {
					o.Seeds = append(o.Seeds, Seed{PatternVertices: []int{pe[0], pe[1]}, DataVertices: pins[:]})
					for _, m := range all {
						if m[pe[0]] == pins[0] && m[pe[1]] == pins[1] {
							want = append(want, embeddingKey(m))
						}
					}
				}
			}
		}
		sort.Strings(want)
		res, err := pr.RunContext(context.Background(), p, o)
		if err != nil {
			t.Fatal(err)
		}
		if got := sortedKeys(res.Instances); len(want) == 0 || !slices.Equal(got, want) {
			t.Errorf("%s: seeded run collected %d embeddings, want %d", p.Name(), len(got), len(want))
		}
	}

	// DataLabels are indexed by caller id.
	labels := randomLabels(g.NumVertices(), 2, 3)
	lp, err := pattern.PG3().WithLabels([]int{0, 1, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	var want [][]graph.VertexID
	centralized.ListInstancesLabeled(lp.BreakAutomorphisms(), g, labels, func(m []graph.VertexID) bool {
		want = append(want, slices.Clone(m))
		return true
	})
	o := opts
	o.Collect, o.DataLabels = true, labels
	res, err := pr.RunContext(context.Background(), lp, o)
	if err != nil {
		t.Fatal(err)
	}
	if got := sortedKeys(res.Instances); len(want) == 0 || !slices.Equal(got, sortedKeys(want)) {
		t.Errorf("labelled diamond: %d embeddings, oracle %d", len(got), len(want))
	}
}

// TestOrderWindowMatchesBruteForce: over random precede/follow masks, images
// and sorted rows — empty rows and inverted windows included — the window
// keeps exactly the entries a per-entry check of the order admits.
func TestOrderWindowMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	e := &engine{}
	ctx := bsp.NewBenchContext[gpsi](bsp.Config{Workers: 1, Owner: func(graph.VertexID) int { return 0 }}, 0, 1)
	inverted := 0
	for trial := 0; trial < 20000; trial++ {
		n := 2 + rng.Intn(maxPatternVertices-1)
		wv := rng.Intn(n)
		m := gpsi{N: int8(n)}
		for i := range m.Map {
			m.Map[i] = unmapped
		}
		for v := 0; v < n; v++ {
			if v != wv {
				m.Map[v] = rng.Int31n(100)
			}
		}
		others := (uint16(1)<<uint(n) - 1) &^ (1 << uint(wv))
		e.precede[wv] = uint16(rng.Intn(1<<16)) & others
		e.follow[wv] = uint16(rng.Intn(1<<16)) & others
		among := uint16(rng.Intn(1<<16)) & others
		var row []graph.VertexID
		for d := graph.VertexID(0); d < 100; d++ {
			if rng.Intn(4) == 0 && trial%10 != 0 {
				row = append(row, d)
			}
		}
		var want []graph.VertexID
		for _, d := range row {
			ok := true
			for u := 0; u < n; u++ {
				if among&(1<<uint(u)) == 0 {
					continue
				}
				if e.precede[wv]&(1<<uint(u)) != 0 && d >= m.Map[u] || e.follow[wv]&(1<<uint(u)) != 0 && d <= m.Map[u] {
					ok = false
				}
			}
			if ok {
				want = append(want, d)
			}
		}
		if lo, hi := e.window(&m, wv, among); lo >= hi {
			inverted++
		}
		if got := e.inWindow(ctx, row, &m, wv, among); !slices.Equal(got, want) {
			t.Fatalf("trial %d: window keeps %v, the order admits %v", trial, got, want)
		}
	}
	if inverted == 0 {
		t.Fatal("no inverted window was generated")
	}
}

// TestColdRunsReusePrepared: a cold run reuses the previous cold run's
// Prepared when the graph is the same and every option Prepare reads agrees,
// and builds afresh otherwise; concurrent cold runs over two graphs, which
// keep replacing each other's state, count what the oracle counts.
func TestColdRunsReusePrepared(t *testing.T) {
	g := gen.ChungLu(300, 1200, 2.0, 4)
	other := gen.ChungLu(300, 1200, 2.0, 5)
	opts := Options{Workers: 3, Seed: 1}
	cold := func(g *graph.Graph, o Options) *Prepared {
		t.Helper()
		if _, err := Run(g, pattern.PG1(), o); err != nil {
			t.Fatal(err)
		}
		return lastCold.Load()
	}
	base := cold(g, opts)
	perRun := opts
	perRun.Collect, perRun.MaxResults = true, 1
	if cold(g, opts) != base || cold(g, perRun) != base || base.src != g {
		t.Fatal("cold runs over one graph under matching options must share a Prepared")
	}
	for name, mutate := range map[string]func(*Options){
		"graph":             func(*Options) {},
		"workers":           func(o *Options) { o.Workers = 2 },
		"seed":              func(o *Options) { o.Seed = 2 },
		"identity order":    func(o *Options) { o.IdentityOrder = true },
		"bitmap min degree": func(o *Options) { o.bitmapMinDegree = 5 },
	} {
		before := cold(g, opts)
		o, on := opts, g
		mutate(&o)
		if name == "graph" {
			on = other
		}
		if rebuilt := cold(on, o); rebuilt == before || rebuilt.src != on {
			t.Errorf("%s: a cold run under another %s reused the Prepared", name, name)
		}
	}

	want := map[*graph.Graph]int64{
		g:     centralized.CountInstances(pattern.PG2(), g),
		other: centralized.CountInstances(pattern.PG2(), other),
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			on := []*graph.Graph{g, other}[i%2]
			for j := 0; j < 5; j++ {
				res, err := Run(on, pattern.PG2(), opts)
				if err != nil || res.Count != want[on] {
					t.Errorf("goroutine %d run %d: count %v err %v, oracle %d", i, j, res, err, want[on])
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

// TestHubWindowEveryInitialVertex: the hub-bitset path walks only the words
// between the window's first and last entry and masks both ends of that
// span. An upper bound binds only when a vertex another must precede is still
// WHITE, so pg2 and pg3 start from every pattern vertex, with the hub
// threshold lowered until the path fires, and must count what the oracle
// counts.
func TestHubWindowEveryInitialVertex(t *testing.T) {
	g := gen.ChungLu(1200, 7000, 1.7, 23)
	for _, p := range []*pattern.Pattern{pattern.PG2(), pattern.PG3()} {
		want := centralized.CountInstances(p, g)
		fired := int64(0)
		for v := 0; v < p.N(); v++ {
			o := NewOptions()
			o.Seed, o.bitmapMinDegree, o.InitialVertex = 3, 16, v
			res, err := Run(g, p, o)
			if err != nil {
				t.Fatal(err)
			}
			if res.Count != want {
				t.Errorf("%s from v%d: count %d, oracle %d", p.Name(), v, res.Count, want)
			}
			fired += res.Stats.BitsetAndCandidates
		}
		if fired == 0 {
			t.Errorf("%s: the bitset path never fired", p.Name())
		}
	}
}
