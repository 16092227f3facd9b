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
// randomized Chung–Lu graphs × every catalog pattern × all three
// distribution strategies × both exchange transports, with the full
// embedding multiset — not just the count — required to match the
// centralized oracle exactly.
func TestDifferentialOracleEmbeddings(t *testing.T) {
	patterns := []*pattern.Pattern{
		pattern.PG1(), pattern.PG2(), pattern.PG3(), pattern.PG4(), pattern.PG5(),
	}
	strategies := []Strategy{StrategyRandom, StrategyRoulette, StrategyWorkloadAware}
	exchanges := []struct {
		name    string
		factory bsp.ExchangeFactory
		workers int
	}{
		{"local", nil, 4},
		{"tcp", bsp.NewTCPExchangeFactory(), 3},
	}

	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		// Skewed Chung–Lu graphs exercise the load-balancing paths that
		// uniform Erdős–Rényi graphs (engine_test.go) do not.
		g := gen.ChungLu(70, 300, 2.3, seed)
		for _, p := range patterns {
			want := oracleEmbeddings(p, g)
			for _, strat := range strategies {
				for _, ex := range exchanges {
					if testing.Short() && ex.name == "tcp" && strat != StrategyWorkloadAware {
						continue
					}
					name := fmt.Sprintf("seed%d/%s/%s/%s", seed, p.Name(), strat, ex.name)
					t.Run(name, func(t *testing.T) {
						res, err := Run(g, p, Options{
							Workers:  ex.workers,
							Strategy: strat,
							Seed:     seed,
							Collect:  true,
							Exchange: ex.factory,
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
// hashed fields one by one; the run loop may change how a superstep is
// driven, never what it computes or in which order a worker sees its inbox.
func TestStrictStatsPinned(t *testing.T) {
	rows := []struct {
		seed     int64
		exchange string
		compress bool
		want     uint64
	}{
		{1, "local", false, 0x4d8c71b548cd8d14},
		{1, "local", true, 0x8865da949042bb57},
		{1, "tcp", false, 0xd6a553958053aa7e},
		{1, "tcp", true, 0x9178d989a448f15d},
		{2, "local", false, 0xf3489059675e03f0},
		{2, "local", true, 0xdd4d091ea42cd96a},
		{2, "tcp", false, 0xe9d3334364cb760b},
		{2, "tcp", true, 0x3d2882182bf00e2},
		{3, "local", false, 0x543adcae953ee431},
		{3, "local", true, 0x436108aa0f50f5d4},
		{3, "tcp", false, 0xfb33466b7e4bf97d},
		{3, "tcp", true, 0xf3a3f264212e63c7},
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
// moves the pruning split, and Gpsis are processed in rank order), and once
// when withoutClocks began to name the hashed fields one by one; they must
// never move with a change to the index-on path.
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
		{1, "local", "", 0x52250903074525f7},
		{1, "tcp", "", 0x70077d320b740e94},
		{2, "local", "", 0xf16cae39a8ef0bec},
		{2, "tcp", "", 0xaf445c3fceeec76c},
		{3, "local", "", 0x8e05bafac55ec4fc},
		{3, "tcp", "", 0x4d70d3d839e5a823},
		{1, "local", "hubs", 0x86b11e408eaaee88},
		{2, "local", "hubs", 0x48d83d5fe0b21c1d},
		{3, "local", "hubs", 0xd3dec7ed7abcf7c6},
		{1, "local", "identity", 0x28452be2962dc62a},
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
