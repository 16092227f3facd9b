package core

import (
	"testing"

	"psgl/internal/centralized"
	"psgl/internal/gen"
	"psgl/internal/pattern"
)

// TestBitsetAndMatchesMergePath proves the bitset AND candidate fast path is
// count-preserving: on a skewed graph with the hub threshold lowered so the
// path actually fires, every pattern must report the oracle's instance count
// with the switch on and off. (combine checks closing edges by a merge that
// needs each candidate list in ascending order, which the AND path must
// keep.)
func TestBitsetAndMatchesMergePath(t *testing.T) {
	g := gen.ChungLu(1200, 7000, 1.7, 23)
	for _, pname := range []string{"pg1", "pg2", "pg3", "pg4"} {
		p, err := pattern.ByName(pname)
		if err != nil {
			t.Fatal(err)
		}
		on := NewOptions()
		on.Seed = 3
		on.BitmapMinDegree = 16
		off := on
		off.DisableBitsetAnd = true

		resOn, err := Run(g, p, on)
		if err != nil {
			t.Fatalf("%s bitset on: %v", pname, err)
		}
		resOff, err := Run(g, p, off)
		if err != nil {
			t.Fatalf("%s bitset off: %v", pname, err)
		}
		if want := centralized.CountInstances(p, g); resOn.Count != want || resOff.Count != want {
			t.Fatalf("%s: bitset path found %d instances, merge path %d, oracle %d",
				pname, resOn.Count, resOff.Count, want)
		}
		if resOff.Stats.BitsetAndCandidates != 0 {
			t.Fatalf("%s: disabled run still took the bitset path %d times",
				pname, resOff.Stats.BitsetAndCandidates)
		}
		// Cliques (pg1, pg4) map every WHITE neighbor in one combine, so their
		// candidate sets never see a second mapped neighbor; the cycle-bearing
		// patterns must exercise the fast path on this graph.
		if (pname == "pg2" || pname == "pg3") && resOn.Stats.BitsetAndCandidates == 0 {
			t.Fatalf("%s: bitset fast path never fired (threshold too high?)", pname)
		}
	}
}

// TestBitsetAndDefaultThresholdSparse checks the default configuration on a
// sparse graph still answers correctly with the fast path enabled (it rarely
// fires there; the gate must be a no-op, not a wrong turn).
func TestBitsetAndDefaultThresholdSparse(t *testing.T) {
	g := gen.ChungLu(800, 2400, 2.5, 31)
	p, err := pattern.ByName("pg2")
	if err != nil {
		t.Fatal(err)
	}
	on := NewOptions()
	off := on
	off.DisableBitsetAnd = true
	resOn, err := Run(g, p, on)
	if err != nil {
		t.Fatal(err)
	}
	resOff, err := Run(g, p, off)
	if err != nil {
		t.Fatal(err)
	}
	if resOn.Count != resOff.Count {
		t.Fatalf("sparse default: bitset %d vs merge %d", resOn.Count, resOff.Count)
	}
}
