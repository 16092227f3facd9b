package main

import (
	"encoding/json"
	"testing"
)

func TestSameSeedSameInputs(t *testing.T) {
	spec := graphSpec{N: 400, M: 1600, Gamma: 2.0}
	render := func(seed int64) []byte {
		in := deriveInputs(seed)
		g := spec.generate(1)
		data, err := json.Marshal(struct {
			Order   []int
			Batches any
		}{queryOrder(serveMix, in.querySeed, 500), updateBatches(g, in.updateSeed, 50, 4)})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b, c := render(7), render(7), render(8)
	if string(a) != string(b) {
		t.Fatal("the same seed gave different inputs")
	}
	if string(a) == string(c) {
		t.Fatal("different seeds gave the same inputs")
	}
	if in7, in8 := deriveInputs(7), deriveInputs(8); in7.querySeed == in8.querySeed || in7.querySeed == in7.updateSeed {
		t.Fatal("seeds and streams must give different derived seeds")
	}
}

func TestQueryOrderFollowsWeights(t *testing.T) {
	order := queryOrder(serveMix, 1, 20000)
	counts := make([]int, len(serveMix))
	for _, i := range order {
		counts[i]++
	}
	for i, q := range serveMix {
		got := 100 * float64(counts[i]) / float64(len(order))
		if got < float64(q.Weight)-2 || got > float64(q.Weight)+2 {
			t.Errorf("%s: %.1f%% of the mix, want %d%%", q, got, q.Weight)
		}
	}
}

// Every generated batch changes the graph, and the model replays to the
// graph an overlay would hold.
func TestUpdateBatchesAlwaysChangeTheGraph(t *testing.T) {
	g := graphSpec{N: 300, M: 1200, Gamma: 2.0}.generate(3)
	m := newEdgeModel(g)
	for i, b := range updateBatches(g, 5, 40, 4) {
		if len(b.Add) != 2 || len(b.Remove) != 2 {
			t.Fatalf("batch %d: %d adds, %d removes", i, len(b.Add), len(b.Remove))
		}
		for _, e := range b.Remove {
			if _, ok := m.index[normEdge(e[0], e[1])]; !ok {
				t.Fatalf("batch %d removes absent edge %v", i, e)
			}
		}
		for _, e := range b.Add {
			if _, ok := m.index[normEdge(e[0], e[1])]; ok || e[0] == e[1] {
				t.Fatalf("batch %d adds present edge or loop %v", i, e)
			}
		}
		m.apply(b)
	}
	if got := m.graph().NumEdges(); got != g.NumEdges() {
		t.Fatalf("model has %d edges after balanced batches, want %d", got, g.NumEdges())
	}
}
