package core

// Engine-level fault-tolerance tests: a PSgL run whose message exchange
// fails and delays frames must — with retry and checkpoint recovery —
// produce exactly the same instance count as a clean run.

import (
	"context"
	"errors"
	"testing"
	"time"

	"psgl/internal/bsp"
	"psgl/internal/faulttest"
	"psgl/internal/gen"
	"psgl/internal/pattern"
)

func TestFaultRecoveryMatchesCleanRun(t *testing.T) {
	// The recovery suite's acceptance test: scheduled failures, absorbed by
	// retry where possible and a checkpoint restore otherwise, with the final
	// count identical to the clean run's. The square run has two supersteps:
	// one failure at superstep 0 is retried; three at superstep 1 exhaust the
	// retries and force a restore of the barrier-1 snapshot.
	g := gen.ErdosRenyi(80, 500, 1)
	p := pattern.PG2()
	base := Options{Workers: 3, Seed: 1}
	clean, err := Run(g, p, base)
	if err != nil {
		t.Fatal(err)
	}

	faulty := base
	faulty.Exchange = faulttest.Schedule(t, nil, bsp.StepFault{Step: 0, Kind: bsp.StepFaultFail}, bsp.StepFault{Step: 1, Kind: bsp.StepFaultFail}, bsp.StepFault{Step: 1, Kind: bsp.StepFaultFail}, bsp.StepFault{Step: 1, Kind: bsp.StepFaultFail})
	faulty.Retry = bsp.RetryPolicy{MaxAttempts: 3, BaseBackoff: 100 * time.Microsecond, MaxBackoff: time.Millisecond}
	faulty.CheckpointEvery = 1
	faulty.CheckpointStore = bsp.NewMemCheckpointStore()
	faulty.MaxRecoveries = 1
	res, err := Run(g, p, faulty)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Recoveries < 1 {
		t.Fatalf("Recoveries = %d: the schedule forced no restore", res.Stats.Recoveries)
	}
	if res.Count != clean.Count {
		t.Fatalf("faulty run counted %d, clean run %d", res.Count, clean.Count)
	}
	if res.Stats.Results != clean.Stats.Results {
		t.Fatalf("Results = %d, want %d", res.Stats.Results, clean.Stats.Results)
	}
}

// TestResumeAcrossRunsMatchesCleanRun lists houses, which take three
// supersteps; a square completes in two.
func TestResumeAcrossRunsMatchesCleanRun(t *testing.T) {
	g := gen.ErdosRenyi(60, 300, 2)
	p := pattern.PG5()
	base := Options{Workers: 3, Seed: 2}
	clean, err := Run(g, p, base)
	if err != nil {
		t.Fatal(err)
	}
	// Exchanges happen after supersteps 0 .. S-2 (the last superstep
	// produces nothing); kill the last one so the failure lands as deep into
	// the run as possible.
	failStep := clean.Stats.Supersteps - 2
	if failStep < 1 {
		t.Fatalf("run too short to test resume: %d supersteps", clean.Stats.Supersteps)
	}

	store := bsp.NewMemCheckpointStore()
	crashed := base
	crashed.Exchange = faulttest.Schedule(t, nil, bsp.StepFault{Step: failStep, Kind: bsp.StepFaultFail})
	crashed.CheckpointEvery = 1
	crashed.CheckpointStore = store
	if _, err := Run(g, p, crashed); !errors.Is(err, bsp.ErrInjectedFault) {
		t.Fatalf("crashed run err = %v, want ErrInjectedFault", err)
	}

	resumed := base
	resumed.ResumeFrom = store
	res, err := Run(g, p, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != clean.Count {
		t.Fatalf("resumed run counted %d, clean run %d", res.Count, clean.Count)
	}
	if res.Stats.Supersteps != clean.Stats.Supersteps {
		t.Fatalf("resumed Supersteps = %d, want %d", res.Stats.Supersteps, clean.Stats.Supersteps)
	}
}

func TestRunContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := gen.ErdosRenyi(40, 150, 3)
	_, err := RunContext(ctx, g, pattern.Triangle(), Options{Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestCountsAgreeAcrossExchanges(t *testing.T) {
	// Property: local, TCP, and faulty-with-retry transports are
	// interchangeable — same graph, same pattern, same count. The diamond run
	// has two supersteps; a step's delay comes after its failures, since
	// same-step faults fire on successive attempts and a delayed attempt
	// succeeds.
	for seed := int64(0); seed < 3; seed++ {
		g := gen.ErdosRenyi(60, 300, seed)
		p := pattern.PG3()
		base := Options{Workers: 3, Seed: seed}
		clean, err := Run(g, p, base)
		if err != nil {
			t.Fatal(err)
		}
		exchanges := map[string]bsp.ExchangeFactory{
			"tcp": bsp.NewTCPExchangeFactory(),
			"faulty": faulttest.Schedule(t, nil,
				bsp.StepFault{Step: 0, Kind: bsp.StepFaultFail}, bsp.StepFault{Step: 0, Kind: bsp.StepFaultDelay, Delay: time.Millisecond},
				bsp.StepFault{Step: 1, Kind: bsp.StepFaultFail}, bsp.StepFault{Step: 1, Kind: bsp.StepFaultFail}, bsp.StepFault{Step: 1, Kind: bsp.StepFaultDelay, Delay: time.Millisecond}),
		}
		for name, ex := range exchanges {
			opts := base
			opts.Exchange = ex
			opts.Retry = bsp.RetryPolicy{MaxAttempts: 20, BaseBackoff: 100 * time.Microsecond, MaxBackoff: time.Millisecond}
			res, err := Run(g, p, opts)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, name, err)
			}
			if res.Count != clean.Count {
				t.Errorf("seed %d: %s counted %d, local %d", seed, name, res.Count, clean.Count)
			}
		}
	}
}
