package core

import (
	"fmt"
	"sort"
	"testing"

	"psgl/internal/bsp"
	"psgl/internal/gen"
	"psgl/internal/pattern"
)

// TestAsyncDifferentialMatchesStrict pins the tentpole's core promise: the
// pipelined async exchange produces the exact same embedding multiset — not
// just the same count — as strict barriered BSP, across skewed Chung–Lu
// graphs, three patterns, all three distribution strategies, and both
// transports. Strict mode is the oracle.
func TestAsyncDifferentialMatchesStrict(t *testing.T) {
	patterns := []*pattern.Pattern{pattern.PG1(), pattern.PG3(), pattern.PG5()}
	strategies := []Strategy{StrategyRandom, StrategyRoulette, StrategyWorkloadAware}
	exchanges := []struct {
		name    string
		factory bsp.ExchangeFactory
		workers int
	}{
		{"local", nil, 4},
		{"tcp", bsp.NewTCPExchangeFactory(), 3},
	}

	seeds := []int64{1, 2}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		g := gen.ChungLu(70, 300, 2.3, seed)
		for _, p := range patterns {
			for _, strat := range strategies {
				for _, ex := range exchanges {
					if testing.Short() && ex.name == "tcp" && strat != StrategyWorkloadAware {
						continue
					}
					name := fmt.Sprintf("seed%d/%s/%s/%s", seed, p.Name(), strat, ex.name)
					t.Run(name, func(t *testing.T) {
						base := Options{
							Workers:  ex.workers,
							Strategy: strat,
							Seed:     seed,
							Collect:  true,
						}
						strictRes, err := Run(g, p, base)
						if err != nil {
							t.Fatal(err)
						}
						asyncOpts := base
						asyncOpts.Exchange = ex.factory
						asyncOpts.AsyncExchange = true
						asyncRes, err := Run(g, p, asyncOpts)
						if err != nil {
							t.Fatal(err)
						}
						if strictRes.Count != asyncRes.Count {
							t.Fatalf("counts diverge: strict=%d async=%d",
								strictRes.Count, asyncRes.Count)
						}
						want := make([]string, 0, len(strictRes.Instances))
						for _, inst := range strictRes.Instances {
							want = append(want, embeddingKey(inst))
						}
						got := make([]string, 0, len(asyncRes.Instances))
						for _, inst := range asyncRes.Instances {
							got = append(got, embeddingKey(inst))
						}
						sort.Strings(want)
						sort.Strings(got)
						if len(got) != len(want) {
							t.Fatalf("%d async embeddings, strict has %d", len(got), len(want))
						}
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("embedding multiset diverges at #%d: async %q, strict %q",
									i, got[i], want[i])
							}
						}
					})
				}
			}
		}
	}
}

// TestAsyncRecoveryCountsExact: an async run whose frames are killed by a
// schedule, recovered via quiescence checkpoints, must still report the
// strict run's exact count — the exactly-once guarantee carries over from
// barriers to quiescence points.
func TestAsyncRecoveryCountsExact(t *testing.T) {
	g := gen.ChungLu(70, 300, 2.3, 7)
	p := pattern.PG3()
	strictRes, err := Run(g, p, Options{Workers: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	factory := bsp.NewScheduledFaultExchangeFactory(nil, []bsp.StepFault{
		{Step: 2, Kind: bsp.StepFaultKill, Worker: 1},
		{Step: 2, Kind: bsp.StepFaultKill, Worker: 1},
		{Step: 3, Kind: bsp.StepFaultDrop},
		{Step: 3, Kind: bsp.StepFaultDrop},
	})
	asyncRes, err := Run(g, p, Options{
		Workers:         3,
		Seed:            7,
		Exchange:        factory,
		AsyncExchange:   true,
		Retry:           bsp.RetryPolicy{MaxAttempts: 2, BaseBackoff: 100e3, MaxBackoff: 2e6},
		CheckpointEvery: 1,
		CheckpointStore: bsp.NewMemCheckpointStore(),
		MaxRecoveries:   6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if strictRes.Count != asyncRes.Count {
		t.Fatalf("recovered async count %d != strict %d (recoveries=%d)",
			asyncRes.Count, strictRes.Count, asyncRes.Stats.Recoveries)
	}

	// The run above ends before a checkpoint can fall due while a worker is
	// still to seed. On a larger graph it can: sweep one kill (no retry, so
	// a recovery) over wire frames 20-38 of each worker, where a snapshot
	// taken before some worker's Init once lost its seeds without an error.
	g = gen.ChungLu(3000, 12000, 2.0, 3)
	p = pattern.PG2()
	strictRes, err = Run(g, p, Options{Workers: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, every := range []int{1, 2} {
		for seq := 20; seq <= 38; seq += 6 {
			for w := 0; w < 3; w++ {
				factory := bsp.NewScheduledFaultExchangeFactory(nil, []bsp.StepFault{{Step: seq, Kind: bsp.StepFaultKill, Worker: w}})
				res, err := Run(g, p, Options{
					Workers:         3,
					Seed:            3,
					Exchange:        factory,
					AsyncExchange:   true,
					CheckpointEvery: every,
					CheckpointStore: bsp.NewMemCheckpointStore(),
					MaxRecoveries:   3,
				})
				if err != nil {
					t.Fatalf("every=%d kill %d@%d: %v", every, w, seq, err)
				}
				if res.Count != strictRes.Count {
					t.Fatalf("every=%d kill %d@%d: recovered async count %d != strict %d (recoveries=%d)",
						every, w, seq, res.Count, strictRes.Count, res.Stats.Recoveries)
				}
			}
		}
	}
}
