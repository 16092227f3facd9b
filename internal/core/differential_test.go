package core

import (
	"fmt"
	"hash/fnv"
	"sort"
	"testing"

	"psgl/internal/bsp"
	"psgl/internal/centralized"
	"psgl/internal/gen"
	"psgl/internal/graph"
	"psgl/internal/pattern"
)

// embeddingKey renders one mapping (pattern vertex -> data vertex) as a
// comparable string. Mappings are compared position-by-position, not as
// vertex sets: both sides break automorphisms with the same canonical rule,
// so each instance must surface as the exact same tuple.
func embeddingKey(mapping []graph.VertexID) string {
	s := ""
	for i, v := range mapping {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprint(v)
	}
	return s
}

// oracleEmbeddings lists every instance via the centralized single-thread
// oracle, as a sorted multiset of embedding keys.
func oracleEmbeddings(p *pattern.Pattern, g *graph.Graph) []string {
	var keys []string
	centralized.ListInstances(p.BreakAutomorphisms(), g, func(m []graph.VertexID) bool {
		keys = append(keys, embeddingKey(m))
		return true
	})
	sort.Strings(keys)
	return keys
}

// TestDifferentialOracleEmbeddings is the differential property suite:
// randomized Chung–Lu graphs × every catalog pattern and a labelled diamond ×
// all three distribution strategies × worker counts 2–4 under the strict and
// the pipelined policy and both exchange transports, with the full embedding
// multiset — not just the count — required to match the centralized oracle
// exactly.
func TestDifferentialOracleEmbeddings(t *testing.T) {
	labelledDiamond, err := pattern.PG3().WithLabels([]int{0, 1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	// The diamond's chord is the one closing edge of its second WHITE slot,
	// so combine intersects that slot's window; clique4's last slot closes on
	// two, so it keeps the candidate-by-candidate test: the control.
	patterns := []*pattern.Pattern{
		pattern.PG1(), pattern.PG2(), pattern.PG3(), pattern.PG4(), pattern.PG5(), labelledDiamond,
	}
	strategies := []Strategy{StrategyRandom, StrategyRoulette, StrategyWorkloadAware}
	exchanges := []struct {
		name    string
		factory bsp.ExchangeFactory
		workers int
		async   bool
	}{
		{"local", nil, 4, false},
		{"tcp", bsp.NewTCPExchangeFactory(), 3, false},
		{"local-k2", nil, 2, false},
		{"pipelined-k2", nil, 2, true},
		{"pipelined-k3", nil, 3, true},
		{"pipelined-k4", nil, 4, true},
	}
	graphs := []struct {
		name string
		seed int64
		g    *graph.Graph
	}{
		{"seed1", 1, gen.ChungLu(70, 300, 2.3, 1)},
		{"seed2", 2, gen.ChungLu(70, 300, 2.3, 2)},
		{"seed3", 3, gen.ChungLu(70, 300, 2.3, 3)},
		// Hubs with windows past meetMinWindow: at every worker count above,
		// combine intersects slots whose closing image the worker owns and
		// slots whose image it does not, for both diamonds.
		{"skew", 4, gen.ChungLu(200, 1200, 2.0, 4)},
	}
	if testing.Short() {
		graphs = []struct {
			name string
			seed int64
			g    *graph.Graph
		}{graphs[0], graphs[3]}
	}
	for _, gr := range graphs {
		// Skewed Chung–Lu graphs exercise the load-balancing paths that
		// uniform Erdős–Rényi graphs (engine_test.go) do not.
		labels := randomLabels(gr.g.NumVertices(), 2, gr.seed)
		for _, p := range patterns {
			pname, want := p.Name(), []string(nil)
			var dataLabels []int32
			if p.Labeled() {
				pname, dataLabels = "labelled-"+pname, labels
				centralized.ListInstancesLabeled(p.BreakAutomorphisms(), gr.g, labels, func(m []graph.VertexID) bool {
					want = append(want, embeddingKey(m))
					return true
				})
				sort.Strings(want)
			} else {
				want = oracleEmbeddings(p, gr.g)
			}
			for _, strat := range strategies {
				for _, ex := range exchanges {
					if testing.Short() && ex.name != "local" && strat != StrategyWorkloadAware {
						continue
					}
					name := fmt.Sprintf("%s/%s/%s/%s", gr.name, pname, strat, ex.name)
					t.Run(name, func(t *testing.T) {
						res, err := Run(gr.g, p, Options{
							Workers:       ex.workers,
							Strategy:      strat,
							Seed:          gr.seed,
							Collect:       true,
							Exchange:      ex.factory,
							AsyncExchange: ex.async,
							DataLabels:    dataLabels,
						})
						if err != nil {
							t.Fatal(err)
						}
						got := make([]string, 0, len(res.Instances))
						for _, inst := range res.Instances {
							got = append(got, embeddingKey(inst))
						}
						sort.Strings(got)
						if len(got) != len(want) {
							t.Fatalf("%d embeddings, oracle has %d", len(got), len(want))
						}
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("embedding multiset diverges at #%d: engine %q, oracle %q", i, got[i], want[i])
							}
						}
						if res.Count != int64(len(want)) {
							t.Fatalf("Count = %d, %d embeddings collected", res.Count, len(want))
						}
					})
				}
			}
		}
	}
}

// TestStrictStatsPinned pins what a strict run reports, bit for bit, on the
// differential suite's seeds: each row hashes Supersteps, PerStepMessages,
// every counter, WorkerMessages, LoadUnits and LoadMakespan (everything in
// Stats but the clocks) over all catalog patterns × strategies. The values
// were recorded before the strict barrier became a quiescence point of the
// credit detector, and re-recorded once when closing edges with an owned
// endpoint began to be checked in place (fewer Gpsis, index queries and
// supersteps; more pruned_by_verify), and once more when the engine moved to
// rank space (the bloom hashes ranks and Gpsis are processed in rank order, so
// Gpsi counts and the pruning split move; results and supersteps do not), and
// once more, with no engine change, when withoutClocks began to name the
// hashed fields one by one, and once when seeds began to be expanded where
// Init builds them (one superstep fewer; the seed entry leaves PerStepMessages
// and WorkerMessages, and compressed runs decode no seed frames; every Gpsi
// count, pruning counter, load and result stayed bit-identical); the run loop
// may change how a superstep is driven, never what it computes or in which
// order a worker sees its inbox.
func TestStrictStatsPinned(t *testing.T) {
	rows := []struct {
		seed     int64
		exchange string
		compress bool
		want     uint64
	}{
		{1, "local", false, 0x985add53784e2567},
		{1, "local", true, 0x9a3fe011a616ab74},
		{1, "tcp", false, 0xd1e40fdcb4ba1a52},
		{1, "tcp", true, 0xc34b4273dde0eb45},
		{2, "local", false, 0x6337622d69c5a1ad},
		{2, "local", true, 0x40c6cae7de4a2109},
		{2, "tcp", false, 0xd24b69a072de4b23},
		{2, "tcp", true, 0x42df242e79067ff2},
		{3, "local", false, 0xab636797fb734b5},
		{3, "local", true, 0x52c98fda0e74fe4d},
		{3, "tcp", false, 0xe184a6fbbb9e3a1d},
		{3, "tcp", true, 0xcb4a3178a43c59b},
	}
	patterns := []*pattern.Pattern{
		pattern.PG1(), pattern.PG2(), pattern.PG3(), pattern.PG4(), pattern.PG5(),
	}
	for _, row := range rows {
		g := gen.ChungLu(70, 300, 2.3, row.seed)
		opts := Options{Workers: 4, Seed: row.seed, CompressFrames: row.compress}
		if row.exchange == "tcp" {
			opts.Workers, opts.Exchange = 3, bsp.NewTCPExchangeFactory()
		}
		h := fnv.New64a()
		for _, p := range patterns {
			for _, strat := range []Strategy{StrategyRandom, StrategyRoulette, StrategyWorkloadAware} {
				opts.Strategy = strat
				res, err := Run(g, p, opts)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(h, "%s\n", withoutClocks(res.Stats))
			}
		}
		if got := h.Sum64(); got != row.want {
			t.Errorf("seed %d %s compress=%v: stats fingerprint %#x, want %#x", row.seed, row.exchange, row.compress, got, row.want)
		}
	}
}

// TestNoIndexStatsPinned pins, like TestStrictStatsPinned, everything a strict
// run without the edge index reports (the paper's "w/o index" ablation, and
// what delta's anchored runs use). Every closing edge is checked where the
// bloom would have been asked, so with no bloom nothing is checked early and
// each such edge costs its verification hop, as in the paper. The values were
// recorded before closing edges were first checked in place, and re-recorded
// once when the engine moved to rank space (the order became a window, which
// moves the pruning split, and Gpsis are processed in rank order), once
// when withoutClocks began to name the hashed fields one by one, and once when
// seeds began to be expanded where Init builds them (only Supersteps,
// PerStepMessages and WorkerMessages moved); they must never move with a
// change to the index-on path.
func TestNoIndexStatsPinned(t *testing.T) {
	// "hubs" lowers the hub threshold so the bitset AND runs too: without the
	// index it only narrows candidates and leaves every edge pending.
	// "identity" is delta's configuration: identity order, no index.
	rows := []struct {
		seed     int64
		exchange string
		variant  string
		want     uint64
	}{
		{1, "local", "", 0x6f52b57448597cc7},
		{1, "tcp", "", 0x5c4f1552f124e9d2},
		{2, "local", "", 0x47042411be580705},
		{2, "tcp", "", 0x1b157f81b3c8356b},
		{3, "local", "", 0xc6dc54d35f0801d1},
		{3, "tcp", "", 0x82204ea87ce40a9a},
		{1, "local", "hubs", 0x1e20ff18bf60e099},
		{2, "local", "hubs", 0xcd03470d7aae3934},
		{3, "local", "hubs", 0x403521bdb6aeeec5},
		{1, "local", "identity", 0x79867709d5cb1068},
	}
	patterns := []*pattern.Pattern{
		pattern.PG1(), pattern.PG2(), pattern.PG3(), pattern.PG4(), pattern.PG5(),
	}
	for _, row := range rows {
		g := gen.ChungLu(70, 300, 2.3, row.seed)
		opts := Options{Workers: 4, Seed: row.seed, DisableEdgeIndex: true}
		switch row.variant {
		case "hubs":
			opts.bitmapMinDegree = 8
		case "identity":
			opts.IdentityOrder = true
		}
		if row.exchange == "tcp" {
			opts.Workers, opts.Exchange = 3, bsp.NewTCPExchangeFactory()
		}
		h := fnv.New64a()
		for _, p := range patterns {
			for _, strat := range []Strategy{StrategyRandom, StrategyRoulette, StrategyWorkloadAware} {
				opts.Strategy = strat
				res, err := Run(g, p, opts)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(h, "%s\n", withoutClocks(res.Stats))
			}
		}
		if got := h.Sum64(); got != row.want {
			t.Errorf("seed %d %s %q: no-index stats fingerprint %#x, want %#x", row.seed, row.exchange, row.variant, got, row.want)
		}
	}
}
