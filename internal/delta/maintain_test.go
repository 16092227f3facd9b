package delta

import (
	"context"
	"math/rand"
	"testing"

	"psgl/internal/centralized"
	"psgl/internal/gen"
	"psgl/internal/graph"
	"psgl/internal/pattern"
)

// TestMaintainedTrianglesMatchOracleEveryEpoch feeds random mutation batches
// through exact delta maintenance: the count maintained as count + gained −
// lost must equal the oracle's count of the new snapshot at every epoch.
func TestMaintainedTrianglesMatchOracleEveryEpoch(t *testing.T) {
	g0 := gen.ChungLu(3000, 18000, 2.0, 3)
	ov := graph.NewOverlay(g0)
	p := pattern.Triangle()
	rng := rand.New(rand.NewSource(17))

	maintained := centralized.CountTriangles(g0)
	prev := g0
	for epoch := 0; epoch < 4; epoch++ {
		var b graph.Batch
		for i := 0; i < 12; i++ {
			u := graph.VertexID(rng.Intn(ov.NumVertices()))
			v := graph.VertexID(rng.Intn(ov.NumVertices()))
			if u == v {
				continue
			}
			if ov.HasEdge(u, v) && rng.Intn(2) == 0 {
				b.Remove = append(b.Remove, [2]graph.VertexID{u, v})
			} else {
				b.Add = append(b.Add, [2]graph.VertexID{u, v})
			}
		}
		res, err := ov.ApplyBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		next := ov.Snapshot()
		d, err := Enumerate(context.Background(), prev, next, res.Added, res.Removed, p,
			Options{Workers: 3, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		maintained += d.Gained - d.Lost

		if exact := centralized.CountTriangles(next); maintained != exact {
			t.Fatalf("epoch %d: maintained count %d != exact %d", epoch, maintained, exact)
		}
		prev = next
	}
}
