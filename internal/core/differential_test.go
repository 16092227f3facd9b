package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"testing"

	"psgl/internal/bsp"
	"psgl/internal/centralized"
	"psgl/internal/gen"
	"psgl/internal/graph"
	"psgl/internal/pattern"
)

// runPartitioned is Run in the paper's vertex-partitioned model
// (PreparePartitioned), workload-aware at α = 0.5: in-place checks of owned
// closing edges, the edge index for the rest, and pending edges.
func runPartitioned(g *graph.Graph, p *pattern.Pattern, opts Options) (*Result, error) {
	return preparePartitioned(g, opts).RunContext(context.Background(), p, opts)
}

// runWithoutIndex is runPartitioned without the edge index: the "w/o index"
// configuration of Table 2.
func runWithoutIndex(g *graph.Graph, p *pattern.Pattern, opts Options) (*Result, error) {
	return PreparePartitioned(g, opts, 0, StrategyWorkloadAware, 0.5).RunContext(context.Background(), p, opts)
}

// preparePartitioned is PreparePartitioned with the paper's edge index and
// its default strategy, workload-aware at α = 0.5.
func preparePartitioned(g *graph.Graph, opts Options) *Prepared {
	return PreparePartitioned(g, opts, BloomBitsPerEdge, StrategyWorkloadAware, 0.5)
}

// partitionedBy is preparePartitioned under strategy s.
func partitionedBy(s Strategy) func(*graph.Graph, Options) *Prepared {
	return func(g *graph.Graph, opts Options) *Prepared {
		return PreparePartitioned(g, opts, BloomBitsPerEdge, s, 0.5)
	}
}

// strategies are the paper's distribution strategies.
var strategies = []Strategy{StrategyRandom, StrategyRoulette, StrategyWorkloadAware}

// runModel is one point of the suites' model axis: the paper's partitioned
// model under one distribution strategy, named after it, or the product (one
// memory domain), which has none. alt marks Random and Roulette, the points a
// -short run leaves out of its costlier rows.
type runModel struct {
	name    string
	prepare func(*graph.Graph, Options) *Prepared
	alt     bool
}

// partitionedModels are the partitioned model under each strategy, and
// runModels the whole model axis: those, then the product.
var (
	partitionedModels = []runModel{
		{StrategyRandom.String(), partitionedBy(StrategyRandom), true},
		{StrategyRoulette.String(), partitionedBy(StrategyRoulette), true},
		{StrategyWorkloadAware.String(), preparePartitioned, false},
	}
	productModel = runModel{"product", Prepare, false}
	runModels    = slices.Concat(partitionedModels, []runModel{productModel})
)

func (m runModel) run(g *graph.Graph, p *pattern.Pattern, opts Options) (*Result, error) {
	return m.prepare(g, opts).RunContext(context.Background(), p, opts)
}

// partitioned reports whether m is a point of the partitioned model, which
// runs strict and in process only.
func (m runModel) partitioned() bool { return m.name != productModel.name }

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
// the product and the partitioned model under all three distribution
// strategies × worker counts 2–4, with the full embedding multiset — not just
// the count — required to match the centralized oracle exactly. The product
// runs under the strict and the pipelined policy and both exchange
// transports; the partitioned model runs strict and in process only: its
// cells of the other configurations check that they are refused, then run
// the model strict, in process, at their worker count.
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
			for _, m := range runModels {
				for _, ex := range exchanges {
					if testing.Short() && ex.name != "local" && m.alt {
						continue
					}
					name := fmt.Sprintf("%s/%s/%s/%s", gr.name, pname, m.name, ex.name)
					t.Run(name, func(t *testing.T) {
						opts := Options{
							Workers:       ex.workers,
							Seed:          gr.seed,
							Collect:       true,
							Exchange:      ex.factory,
							AsyncExchange: ex.async,
							DataLabels:    dataLabels,
						}
						if m.partitioned() && (ex.factory != nil || ex.async) {
							// Refused; the model's one configuration runs at
							// this cell's worker count instead.
							requireRefused(t, m, gr.g, p, opts)
							opts.Exchange, opts.AsyncExchange = nil, false
						}
						res, err := m.run(gr.g, p, opts)
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
// Stats but the clocks) over all catalog patterns (× strategies, in the
// partitioned model). The values
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
// order a worker sees its inbox. Those rows run the paper's partitioned model,
// which runs in process only; the product rows beside them (one memory
// domain, Prepare), in process and over TCP, were recorded when the product
// stopped partitioning rows, and re-recorded when it began to pick the next
// vertex by cost alone and lost its strategy loop. withoutClocks prints the
// deleted compressed-frame counters as zeros, as every row recorded them.
func TestStrictStatsPinned(t *testing.T) {
	rows := []struct {
		partitioned bool
		seed        int64
		exchange    string
		want        uint64
	}{
		{true, 1, "local", 0x985add53784e2567},
		{true, 2, "local", 0x6337622d69c5a1ad},
		{true, 3, "local", 0xab636797fb734b5},
		{false, 1, "local", 0xccb6b88513d5d2e1},
		{false, 1, "tcp", 0x51bebb3f4abb7f13},
		{false, 2, "local", 0x9394917f7c44effd},
		{false, 2, "tcp", 0x20a9be8b7e52c775},
		{false, 3, "local", 0x522bb4d9f2481fc0},
		{false, 3, "tcp", 0x4962d3521d905051},
	}
	patterns := []*pattern.Pattern{
		pattern.PG1(), pattern.PG2(), pattern.PG3(), pattern.PG4(), pattern.PG5(),
	}
	for _, row := range rows {
		g := gen.ChungLu(70, 300, 2.3, row.seed)
		opts := Options{Workers: 4, Seed: row.seed}
		if row.exchange == "tcp" {
			opts.Workers, opts.Exchange = 3, bsp.NewTCPExchangeFactory()
		}
		// The product has no strategy: its rows run each pattern once.
		models := []runModel{productModel}
		if row.partitioned {
			models = partitionedModels
		}
		h := fnv.New64a()
		for _, p := range patterns {
			for _, m := range models {
				res, err := m.run(g, p, opts)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(h, "%s\n", withoutClocks(res.Stats))
			}
		}
		if got := h.Sum64(); got != row.want {
			t.Errorf("partitioned=%v seed %d %s: stats fingerprint %#x, want %#x",
				row.partitioned, row.seed, row.exchange, got, row.want)
		}
	}
}

// TestNoIndexStatsPinned pins, like TestStrictStatsPinned, everything a strict
// run without the edge index reports in the partitioned model (the paper's
// "w/o index" ablation, and what delta's anchored runs used until they moved
// to one memory domain). Every closing edge is checked where the
// bloom would have been asked, so with no bloom nothing is checked early and
// each such edge costs its verification hop, as in the paper. The values were
// recorded before closing edges were first checked in place, and re-recorded
// once when the engine moved to rank space (the order became a window, which
// moves the pruning split, and Gpsis are processed in rank order), once
// when withoutClocks began to name the hashed fields one by one, and once when
// seeds began to be expanded where Init builds them (only Supersteps,
// PerStepMessages and WorkerMessages moved); they must never move with a
// change to the index-on path. The model runs in process only.
func TestNoIndexStatsPinned(t *testing.T) {
	// "hubs" lowers the hub threshold so the bitset AND runs too: without the
	// index it only narrows candidates and leaves every edge pending.
	// "identity" was delta's configuration: identity order, no index.
	rows := []struct {
		seed    int64
		variant string
		want    uint64
	}{
		{1, "", 0x6f52b57448597cc7},
		{2, "", 0x47042411be580705},
		{3, "", 0xc6dc54d35f0801d1},
		{1, "hubs", 0x1e20ff18bf60e099},
		{2, "hubs", 0xcd03470d7aae3934},
		{3, "hubs", 0x403521bdb6aeeec5},
		{1, "identity", 0x79867709d5cb1068},
	}
	patterns := []*pattern.Pattern{
		pattern.PG1(), pattern.PG2(), pattern.PG3(), pattern.PG4(), pattern.PG5(),
	}
	for _, row := range rows {
		g := gen.ChungLu(70, 300, 2.3, row.seed)
		opts := Options{Workers: 4, Seed: row.seed}
		switch row.variant {
		case "hubs":
			opts.bitmapMinDegree = 8
		case "identity":
			opts.IdentityOrder = true
		}
		h := fnv.New64a()
		for _, p := range patterns {
			for _, strat := range strategies {
				res, err := PreparePartitioned(g, opts, 0, strat, 0.5).RunContext(context.Background(), p, opts)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(h, "%s\n", withoutClocks(res.Stats))
			}
		}
		if got := h.Sum64(); got != row.want {
			t.Errorf("seed %d %q: no-index stats fingerprint %#x, want %#x", row.seed, row.variant, got, row.want)
		}
	}
}
