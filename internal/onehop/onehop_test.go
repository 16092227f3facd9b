package onehop

import (
	"errors"
	"testing"

	"psgl/internal/centralized"
	"psgl/internal/gen"
	"psgl/internal/pattern"
)

func TestMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		g := gen.ErdosRenyi(120, 700, seed)
		for _, p := range []*pattern.Pattern{pattern.PG1(), pattern.PG2(), pattern.PG3(), pattern.PG4(), pattern.PG5()} {
			want := centralized.CountInstances(p, g)
			res, err := Run(g, p, Options{Workers: 3, Seed: seed})
			if err != nil {
				t.Fatalf("%s seed=%d: %v", p.Name(), seed, err)
			}
			if res.Count != want {
				t.Errorf("%s seed=%d: onehop=%d oracle=%d", p.Name(), seed, res.Count, want)
			}
		}
	}
}

func TestMatchesOracleSkewed(t *testing.T) {
	g := gen.ChungLu(400, 1600, 1.7, 4)
	for _, p := range []*pattern.Pattern{pattern.PG1(), pattern.PG2()} {
		want := centralized.CountInstances(p, g)
		res, err := Run(g, p, Options{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != want {
			t.Errorf("%s: onehop=%d oracle=%d", p.Name(), res.Count, want)
		}
	}
}

func TestAllValidOrdersAgree(t *testing.T) {
	g := gen.ErdosRenyi(100, 600, 9)
	p := pattern.PG3()
	want := centralized.CountInstances(p, g)
	orders := [][]int{
		{0, 1, 2, 3}, {1, 0, 2, 3}, {1, 3, 0, 2}, {3, 1, 2, 0}, {2, 1, 3, 0},
	}
	for _, order := range orders {
		if err := ValidateOrder(p, order); err != nil {
			t.Fatalf("order %v rejected: %v", order, err)
		}
		res, err := Run(g, p, Options{Workers: 3, Order: order})
		if err != nil {
			t.Fatalf("order %v: %v", order, err)
		}
		if res.Count != want {
			t.Errorf("order %v: count=%d want=%d", order, res.Count, want)
		}
	}
}

func TestOrderValidation(t *testing.T) {
	p := pattern.PG2() // square 0-1-2-3
	bad := [][]int{
		{0, 1, 2},     // wrong length
		{0, 0, 1, 2},  // not a permutation
		{0, 2, 1, 3},  // 2 is not adjacent to 0 in C4
		{-1, 0, 1, 2}, // out of range
	}
	for _, order := range bad {
		if err := ValidateOrder(p, order); err == nil {
			t.Errorf("order %v accepted", order)
		}
	}
	if err := ValidateOrder(p, []int{0, 1, 2, 3}); err != nil {
		t.Errorf("valid order rejected: %v", err)
	}
}

// TestOrderSensitivity reproduces the Table 4 observation: on a skewed graph,
// different fixed traversal orders generate very different intermediate
// volumes ("it is difficult for a non-expert to figure out a good traversal
// order").
func TestOrderSensitivity(t *testing.T) {
	g := gen.ChungLu(800, 3200, 1.6, 7)
	p := pattern.PG3()
	gen1, err := Run(g, p, Options{Workers: 3, Order: []int{1, 3, 0, 2}}) // start at the chord (deg-3) vertices
	if err != nil {
		t.Fatal(err)
	}
	gen2, err := Run(g, p, Options{Workers: 3, Order: []int{0, 1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("generated: order(1,3,0,2)=%d order(0,1,2,3)=%d", gen1.Stats.Generated, gen2.Stats.Generated)
	if gen1.Stats.Generated == gen2.Stats.Generated {
		t.Error("different orders produced identical intermediate volume — sensitivity not modeled")
	}
}

func TestOOMBudget(t *testing.T) {
	g := gen.ChungLu(800, 3200, 1.6, 8)
	_, err := Run(g, pattern.PG4(), Options{Workers: 2, MaxIntermediate: 200})
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
}

// TestShipsMoreIntermediatesThanItKeeps verifies the engine's defining cost:
// a pattern edge whose endpoints are two hops from the anchor (the square's
// closing edge) cannot be checked at extension time, so invalid candidates
// are shipped and die only at verification.
func TestShipsMoreIntermediatesThanItKeeps(t *testing.T) {
	g := gen.ChungLu(600, 2400, 1.7, 3)
	res, err := Run(g, pattern.PG2(), Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PrunedByVerify == 0 {
		t.Error("no post-shipping pruning observed; the one-hop limitation is not modeled")
	}
	if res.Stats.Generated <= res.Count {
		t.Errorf("generated=%d <= results=%d", res.Stats.Generated, res.Count)
	}
}

// TestTriangleClosesLocally verifies the one-hop gather fast path: every
// closing edge of a triangle is one hop from the anchor, so nothing is
// pruned post-shipping and the instance count is produced in place.
func TestTriangleClosesLocally(t *testing.T) {
	g := gen.ChungLu(600, 2400, 1.7, 5)
	res, err := Run(g, pattern.PG1(), Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PrunedByVerify != 0 {
		t.Errorf("triangle shipped %d candidates that died remotely; gather fast path inactive",
			res.Stats.PrunedByVerify)
	}
	if res.Stats.PrunedLocally == 0 {
		t.Error("no local pruning recorded")
	}
}

func TestDefaultOrderValid(t *testing.T) {
	for _, p := range []*pattern.Pattern{pattern.PG1(), pattern.PG2(), pattern.PG3(), pattern.PG4(), pattern.PG5(), pattern.Star(4), pattern.Cycle(6)} {
		if err := ValidateOrder(p, DefaultOrder(p)); err != nil {
			t.Errorf("%s: default order invalid: %v", p.Name(), err)
		}
	}
}

func TestInvalidInputs(t *testing.T) {
	g := gen.ErdosRenyi(10, 20, 1)
	if _, err := Run(nil, pattern.PG1(), Options{}); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := Run(g, nil, Options{}); err == nil {
		t.Error("nil pattern accepted")
	}
	if _, err := Run(g, pattern.PG1(), Options{Order: []int{0, 2, 1, 3}}); err == nil {
		t.Error("wrong-length order accepted")
	}
}

func BenchmarkOneHopTriangle(b *testing.B) {
	g := gen.ChungLu(5000, 25000, 1.8, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(g, pattern.PG1(), Options{Workers: 4}); err != nil {
			b.Fatal(err)
		}
	}
}
