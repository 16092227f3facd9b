package core

// Exactly-once load-accounting regression tests: the engine's cost-model
// accumulators (LoadUnits, per-step loads, and therefore the Equation 3
// LoadMakespan) ride barrier snapshots, so a run resumed from a stopped run's
// checkpoint replays supersteps without double-charging them. These tests pin
// the bit-for-bit equality with a clean run of the same seed.

import (
	"context"
	"testing"

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

// TestResumedRunLoadAccountingExact stops a house run (three supersteps; a
// square completes in two, which leaves no barrier to stop at but the first)
// after each of its saves and resumes it from the stopped run's checkpoint
// (the product's: the partitioned model takes no checkpoint): the resumed
// books match a run that never stopped.
func TestResumedRunLoadAccountingExact(t *testing.T) {
	g := gen.ErdosRenyi(60, 300, 2)
	p := pattern.PG5()
	base := Options{Workers: 3, Seed: 2}
	pr := Prepare(g, base)
	clean, err := pr.RunContext(context.Background(), p, base)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Stats.Supersteps < 3 {
		t.Fatalf("run too short to test resume: %d supersteps", clean.Stats.Supersteps)
	}
	for n := 1; n < clean.Stats.Supersteps; n++ {
		sr, ok := stopAndResume(t, pr, p, base, n, false)
		if !ok {
			t.Fatalf("the run ended before its save %d", n)
		}
		if sr.resumed.Count != clean.Count {
			t.Fatalf("resumed after save %d: count %d, clean %d", n, sr.resumed.Count, clean.Count)
		}
		assertLoadsEqual(t, "product", &sr.resumed.Stats, &clean.Stats)
	}
}
