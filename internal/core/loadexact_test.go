package core

// Exactly-once load-accounting regression tests: the engine's cost-model
// accumulators (LoadUnits, per-step loads, and therefore the Equation 3
// LoadMakespan) ride barrier snapshots, so a run that recovered from faults —
// or resumed from another run's checkpoints — replays supersteps without
// double-charging them. These tests pin the bit-for-bit equality with a clean
// run of the same seed.

import (
	"errors"
	"testing"

	"psgl/internal/bsp"
	"psgl/internal/faulttest"
	"psgl/internal/gen"
	"psgl/internal/pattern"
)

func assertLoadsEqual(t *testing.T, label string, got, want *Stats) {
	t.Helper()
	if len(got.LoadUnits) != len(want.LoadUnits) {
		t.Fatalf("%s: LoadUnits has %d workers, want %d", label, len(got.LoadUnits), len(want.LoadUnits))
	}
	for w := range want.LoadUnits {
		// Bit-for-bit: replayed supersteps must take identical routing
		// decisions and charge identical load, not merely close load.
		if got.LoadUnits[w] != want.LoadUnits[w] {
			t.Errorf("%s: LoadUnits[%d] = %v, want %v", label, w, got.LoadUnits[w], want.LoadUnits[w])
		}
	}
	if got.LoadMakespan != want.LoadMakespan {
		t.Errorf("%s: LoadMakespan = %v, want %v", label, got.LoadMakespan, want.LoadMakespan)
	}
	if got.GpsiGenerated != want.GpsiGenerated {
		t.Errorf("%s: GpsiGenerated = %d, want %d", label, got.GpsiGenerated, want.GpsiGenerated)
	}
}

func TestRecoveredRunLoadAccountingExact(t *testing.T) {
	// The headline bugfix: before engine state rode checkpoints, every
	// checkpoint-restore replayed supersteps whose load had already been
	// accumulated, inflating LoadUnits and LoadMakespan on recovered runs.
	for _, strategy := range []Strategy{StrategyWorkloadAware, StrategyRandom, StrategyRoulette} {
		t.Run(strategy.String(), func(t *testing.T) {
			g := gen.ErdosRenyi(80, 500, 1)
			p := pattern.PG2()
			base := Options{Workers: 3, Seed: 1, Strategy: strategy}
			clean, err := Run(g, p, base)
			if err != nil {
				t.Fatal(err)
			}

			// No retry policy: each of the two failures at superstep 1 forces
			// a checkpoint restore and a replay of it — the exact
			// double-charging scenario.
			faulty := base
			faulty.Exchange = faulttest.Schedule(t, nil, bsp.StepFault{Step: 1, Kind: bsp.StepFaultFail}, bsp.StepFault{Step: 1, Kind: bsp.StepFaultFail})
			faulty.CheckpointEvery = 1
			faulty.CheckpointStore = bsp.NewMemCheckpointStore()
			faulty.MaxRecoveries = 10
			res, err := Run(g, p, faulty)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Recoveries == 0 {
				t.Fatal("fault injection caused no recoveries; test exercises nothing")
			}
			if res.Count != clean.Count {
				t.Fatalf("recovered run counted %d, clean run %d", res.Count, clean.Count)
			}
			assertLoadsEqual(t, "recovered", &res.Stats, &clean.Stats)
		})
	}
}

// TestResumedRunLoadAccountingExact crashes a house run (three supersteps; a
// square completes in two, which leaves no barrier to crash at but the first)
// at its last exchange and resumes it from the crashed run's checkpoints.
func TestResumedRunLoadAccountingExact(t *testing.T) {
	g := gen.ErdosRenyi(60, 300, 2)
	p := pattern.PG5()
	base := Options{Workers: 3, Seed: 2}
	clean, err := Run(g, p, base)
	if err != nil {
		t.Fatal(err)
	}
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

	// The resumed run starts from the last checkpoint of the crashed run; its
	// engine accumulators are restored from the same snapshot, so the final
	// books must match a run that never crashed.
	resumed := base
	resumed.ResumeFrom = store
	res, err := Run(g, p, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != clean.Count {
		t.Fatalf("resumed run counted %d, clean run %d", res.Count, clean.Count)
	}
	assertLoadsEqual(t, "resumed", &res.Stats, &clean.Stats)
}

func TestRestartFromScratchLoadAccountingExact(t *testing.T) {
	// With no checkpoint available (CheckpointEvery unset), recovery restarts
	// from superstep 0; RestoreState(nil) must zero the accumulators or the
	// pre-crash partial load would be double-counted. A square, not a
	// triangle: a triangle completes where it is seeded, so its run has no
	// exchange to fail.
	g := gen.ErdosRenyi(60, 300, 4)
	p := pattern.PG2()
	base := Options{Workers: 3, Seed: 4}
	clean, err := Run(g, p, base)
	if err != nil {
		t.Fatal(err)
	}

	// A store with no checkpoints in it: recovery finds ErrNoCheckpoint and
	// restarts from superstep 0 (CheckpointEvery stays 0, so nothing is ever
	// saved).
	faulty := base
	faulty.Exchange = faulttest.Schedule(t, nil, bsp.StepFault{Step: 1, Kind: bsp.StepFaultFail})
	faulty.CheckpointStore = bsp.NewMemCheckpointStore()
	faulty.MaxRecoveries = 3
	res, err := Run(g, p, faulty)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Recoveries == 0 {
		t.Fatal("fault injection caused no recoveries; test exercises nothing")
	}
	if res.Count != clean.Count {
		t.Fatalf("restarted run counted %d, clean run %d", res.Count, clean.Count)
	}
	assertLoadsEqual(t, "restarted", &res.Stats, &clean.Stats)
}
