package core

import (
	"math/rand"
	"testing"

	"psgl/internal/centralized"
	"psgl/internal/gen"
	"psgl/internal/pattern"
)

func randomLabels(n int, kinds int, seed int64) []int32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(rng.Intn(kinds))
	}
	return out
}

func TestLabeledMatchingMatchesOracle(t *testing.T) {
	g := gen.ErdosRenyi(150, 900, 41)
	labels := randomLabels(g.NumVertices(), 3, 5)
	base := []struct {
		p      *pattern.Pattern
		labels []int
	}{
		{pattern.PG1(), []int{0, 1, 2}},
		{pattern.PG1(), []int{1, 1, 1}},
		{pattern.PG2(), []int{0, 1, 0, 1}},
		{pattern.PG3(), []int{2, 0, 2, 1}},
	}
	for _, c := range base {
		lp, err := c.p.WithLabels(c.labels)
		if err != nil {
			t.Fatal(err)
		}
		want := centralized.CountInstancesLabeled(lp.BreakAutomorphisms(), g, labels)
		res, err := Run(g, lp, Options{Workers: 3, DataLabels: labels})
		if err != nil {
			t.Fatalf("%s %v: %v", c.p.Name(), c.labels, err)
		}
		if res.Count != want {
			t.Errorf("%s labels=%v: psgl=%d oracle=%d", c.p.Name(), c.labels, res.Count, want)
		}
		if res.Stats.PrunedByLabel == 0 {
			t.Errorf("%s: label filter never pruned on a 3-label graph", c.p.Name())
		}
	}
}

func TestLabeledSubsetOfUnlabeled(t *testing.T) {
	// Uniform labels on both sides must reproduce the unlabeled count; any
	// non-uniform labeling can only shrink it.
	g := gen.ErdosRenyi(120, 700, 7)
	unlabeled, err := Run(g, pattern.PG1(), Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	uniform := make([]int32, g.NumVertices())
	lp, err := pattern.PG1().WithLabels([]int{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	same, err := Run(g, lp, Options{Workers: 3, DataLabels: uniform})
	if err != nil {
		t.Fatal(err)
	}
	if same.Count != unlabeled.Count {
		t.Fatalf("uniform labels changed the count: %d vs %d", same.Count, unlabeled.Count)
	}
	mixed := randomLabels(g.NumVertices(), 2, 3)
	lp2, err := pattern.PG1().WithLabels([]int{0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	fewer, err := Run(g, lp2, Options{Workers: 3, DataLabels: mixed})
	if err != nil {
		t.Fatal(err)
	}
	if fewer.Count > unlabeled.Count {
		t.Fatalf("labeled count %d exceeds unlabeled %d", fewer.Count, unlabeled.Count)
	}
}

func TestLabelsRestrictAutomorphisms(t *testing.T) {
	// A label-asymmetric triangle has |Aut| = 1 even though K3 has 6.
	lp, err := pattern.MustNew("k3", 3, [][2]int{{0, 1}, {1, 2}, {2, 0}}).WithLabels([]int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := lp.NumAutomorphisms(); got != 1 {
		t.Fatalf("|Aut| of fully labeled triangle = %d, want 1", got)
	}
	// Two equal labels leave exactly one swap.
	lp2, err := pattern.MustNew("k3", 3, [][2]int{{0, 1}, {1, 2}, {2, 0}}).WithLabels([]int{0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := lp2.NumAutomorphisms(); got != 2 {
		t.Fatalf("|Aut| = %d, want 2", got)
	}
}

func TestLabelMismatchErrors(t *testing.T) {
	g := gen.ErdosRenyi(20, 60, 1)
	labels := make([]int32, g.NumVertices())
	// Labeled data, unlabeled pattern.
	if _, err := Run(g, pattern.PG1(), Options{DataLabels: labels}); err == nil {
		t.Error("labeled data with unlabeled pattern accepted")
	}
	// Labeled pattern, unlabeled data.
	lp, err := pattern.PG1().WithLabels([]int{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(g, lp, Options{}); err == nil {
		t.Error("labeled pattern with unlabeled data accepted")
	}
	// Wrong label count.
	if _, err := Run(g, lp, Options{DataLabels: labels[:5]}); err == nil {
		t.Error("short label slice accepted")
	}
	// Wrong pattern label count.
	if _, err := pattern.PG1().WithLabels([]int{0}); err == nil {
		t.Error("short pattern label slice accepted")
	}
}

func TestLabeledWithoutBreakingAblation(t *testing.T) {
	g := gen.ErdosRenyi(60, 350, 9)
	labels := randomLabels(g.NumVertices(), 2, 2)
	lp, err := pattern.PG1().WithLabels([]int{0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	broken, err := Run(g, lp, Options{Workers: 2, DataLabels: labels})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := Run(g, lp.StripOrders(), Options{Workers: 2, DataLabels: labels, PlannedPattern: true})
	if err != nil {
		t.Fatal(err)
	}
	if raw.Count != broken.Count*int64(lp.NumAutomorphisms()) {
		t.Fatalf("raw=%d broken=%d |Aut|=%d", raw.Count, broken.Count, lp.NumAutomorphisms())
	}
}
