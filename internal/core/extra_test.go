package core

import (
	"sync"
	"testing"

	"psgl/internal/centralized"
	"psgl/internal/gen"
	"psgl/internal/graph"
	"psgl/internal/pattern"
)

func TestOnInstanceStreamsEveryResult(t *testing.T) {
	g := gen.ErdosRenyi(80, 500, 13)
	p := pattern.PG3()
	var mu sync.Mutex
	var streamed [][]graph.VertexID
	res, err := Run(g, p, Options{
		Workers: 3,
		OnInstance: func(m []graph.VertexID) {
			mu.Lock()
			streamed = append(streamed, append([]graph.VertexID(nil), m...))
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(streamed)) != res.Count {
		t.Fatalf("streamed %d, counted %d", len(streamed), res.Count)
	}
	for _, inst := range streamed {
		for _, e := range p.Edges() {
			if !g.HasEdge(inst[e[0]], inst[e[1]]) {
				t.Fatalf("streamed instance %v missing edge %v", inst, e)
			}
		}
	}
}

// TestTinyBloomStillExact floods the engine with bloom false positives (2
// bits/edge ≈ 40%+ FP rate) and checks the final counts are still exact —
// the pending-edge protocol must catch every false positive at a later
// exact verification.
func TestTinyBloomStillExact(t *testing.T) {
	g := gen.ChungLu(300, 1200, 1.8, 17)
	for _, p := range []*pattern.Pattern{pattern.PG1(), pattern.PG2(), pattern.PG3(), pattern.PG4(), pattern.PG5()} {
		want := centralized.CountInstances(p, g)
		res, err := Run(g, p, Options{Workers: 3, BloomBitsPerEdge: 2})
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if res.Count != want {
			t.Errorf("%s: count=%d want=%d under heavy bloom FPs", p.Name(), res.Count, want)
		}
		if res.Stats.PrunedByVerify == 0 && p.NumEdges() > p.N()-1 {
			t.Logf("%s: no false positives caught (possible but unlikely)", p.Name())
		}
	}
}

func TestBloomSizeTradeoff(t *testing.T) {
	// Bigger filters prune more at generation time, so fewer Gpsis flow.
	g := gen.ChungLu(1000, 4000, 1.7, 23)
	run := func(bits int) int64 {
		res, err := Run(g, pattern.PG3(), Options{Workers: 3, BloomBitsPerEdge: bits})
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.GpsiGenerated
	}
	small, big := run(2), run(16)
	if big > small {
		t.Errorf("16-bit filter generated more Gpsis (%d) than 2-bit (%d)", big, small)
	}
}

func TestPatternTooLargeRejected(t *testing.T) {
	var edges [][2]int
	for i := 0; i < 17; i++ {
		edges = append(edges, [2]int{i, (i + 1) % 17})
	}
	p := pattern.MustNew("c17", 17, edges)
	if _, err := Run(gen.ErdosRenyi(10, 20, 1), p, Options{}); err == nil {
		t.Fatal("17-vertex pattern accepted (engine supports <= 16)")
	}
}

func TestDisconnectedWorkersStillCount(t *testing.T) {
	// More workers than vertices: most workers own nothing.
	g := gen.ErdosRenyi(10, 30, 2)
	want := centralized.CountInstances(pattern.PG1(), g)
	res, err := Run(g, pattern.PG1(), Options{Workers: 64})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != want {
		t.Fatalf("count=%d want=%d with 64 workers on 10 vertices", res.Count, want)
	}
}

func TestSeedChangesPartitionNotCount(t *testing.T) {
	g := gen.ChungLu(400, 1600, 1.8, 31)
	var counts []int64
	var gpsi []int64
	for seed := int64(0); seed < 4; seed++ {
		res, err := Run(g, pattern.PG2(), Options{Workers: 4, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, res.Count)
		gpsi = append(gpsi, res.Stats.GpsiGenerated)
	}
	for _, c := range counts {
		if c != counts[0] {
			t.Fatalf("seed changed the instance count: %v", counts)
		}
	}
	// Partitioning/strategy randomness should change internals at least once.
	varies := false
	for _, n := range gpsi {
		if n != gpsi[0] {
			varies = true
		}
	}
	if !varies {
		t.Log("note: Gpsi totals identical across seeds (possible, not an error)")
	}
}

func TestHighWorkerCountsLevelSupersteps(t *testing.T) {
	// Worker count must not change the superstep structure (level-sync) once
	// there is more than one worker. A single worker owns every endpoint, so
	// it checks every closing edge on the spot and never pays a verification
	// hop: it may finish sooner, never later.
	g := gen.ErdosRenyi(100, 500, 3)
	var steps []int
	for _, k := range []int{1, 4, 16} {
		res, err := Run(g, pattern.PG5(), Options{Workers: k})
		if err != nil {
			t.Fatal(err)
		}
		steps = append(steps, res.Stats.Supersteps)
	}
	if steps[1] != steps[2] {
		t.Fatalf("superstep count varies with workers >= 2: %v (K = 1, 4, 16)", steps)
	}
	if steps[0] > steps[1] {
		t.Fatalf("one worker takes more supersteps than many: %v (K = 1, 4, 16)", steps)
	}
}

func TestLoadMakespanBetweenBounds(t *testing.T) {
	// Σ_s max_w load is at least total/K and at most total.
	g := gen.ChungLu(500, 2000, 1.8, 37)
	res, err := Run(g, pattern.PG2(), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, l := range res.Stats.LoadUnits {
		total += l
	}
	mk := res.Stats.LoadMakespan
	if mk < total/4-1e-9 || mk > total+1e-9 {
		t.Fatalf("LoadMakespan %.1f outside [total/K=%.1f, total=%.1f]", mk, total/4, total)
	}
}
