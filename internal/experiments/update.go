package experiments

// Update benchmarks the dynamic-graph path (internal/graph.Overlay +
// internal/delta): a stream of small edge batches is applied to a resident
// power-law graph, and each batch's embedding delta is computed two ways —
// the anchored delta enumerator (what POST /update runs) and a full
// re-enumeration of the mutated graph (what a static server would have to
// do). Every batch is verified with the maintenance identity
// count(before) + gained - lost == count(after) against the full rerun, so
// the speedup column is a comparison of two provably identical answers.
// UpdateJSON emits the same numbers machine-readably for the committed
// BENCH_update.json baseline.

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"psgl/internal/core"
	"psgl/internal/delta"
	"psgl/internal/gen"
	"psgl/internal/graph"
	"psgl/internal/pattern"
)

// UpdateRun is one mutation batch's measurement.
type UpdateRun struct {
	Batch        int     `json:"batch"`
	EdgesAdded   int     `json:"edges_added"`
	EdgesRemoved int     `json:"edges_removed"`
	Gained       int64   `json:"gained"`
	Lost         int64   `json:"lost"`
	Count        int64   `json:"count"` // embeddings after the batch
	DeltaMS      float64 `json:"delta_ms"`
	FullMS       float64 `json:"full_ms"`
}

// UpdateReport is the full machine-readable dynamic-graph baseline.
type UpdateReport struct {
	Graph      string `json:"graph"`
	Pattern    string `json:"pattern"`
	Batches    int    `json:"batches"`
	BatchEdges int    `json:"batch_edges"`
	// UpdatesPerSec is the sustained mutation throughput of the delta path:
	// batches applied and maintained per second of wall time (overlay apply +
	// snapshot + delta enumeration).
	UpdatesPerSec float64 `json:"updates_per_sec"`
	DeltaTotalMS  float64 `json:"delta_total_ms"`
	FullTotalMS   float64 `json:"full_total_ms"`
	// Speedup is FullTotalMS / DeltaTotalMS — how much cheaper maintaining
	// the embedding set is than recomputing it per batch.
	Speedup float64     `json:"speedup"`
	Runs    []UpdateRun `json:"runs"`
}

// updateBatch draws one small mixed batch: half random candidate additions
// (vertex pairs that may or may not exist) and half removals of edges present
// in the current graph, so the delta path exercises both sides every batch.
func updateBatch(rng *rand.Rand, g *graph.Graph, size int) graph.Batch {
	var b graph.Batch
	n := g.NumVertices()
	for len(b.Add) < (size+1)/2 {
		u := graph.VertexID(rng.Intn(n))
		v := graph.VertexID(rng.Intn(n))
		if u == v {
			continue
		}
		b.Add = append(b.Add, [2]graph.VertexID{u, v})
	}
	for len(b.Remove) < size/2 {
		u := graph.VertexID(rng.Intn(n))
		if g.Degree(u) == 0 {
			continue
		}
		nbrs := g.Neighbors(u)
		b.Remove = append(b.Remove, [2]graph.VertexID{u, nbrs[rng.Intn(len(nbrs))]})
	}
	return b
}

func runUpdate() (*UpdateReport, error) {
	const (
		batches    = 8
		batchEdges = 4
		workers    = 4
	)
	g := gen.ChungLu(4000, 16000, 1.8, 47)
	p := pattern.PG3()
	rep := &UpdateReport{
		Graph:      "chunglu:4000:16000:1.8",
		Pattern:    "pg3 (diamond)",
		Batches:    batches,
		BatchEdges: batchEdges,
	}

	base, err := core.Run(g, p, core.Options{Workers: workers, Observer: Observer})
	if err != nil {
		return nil, fmt.Errorf("update: baseline run: %w", err)
	}
	count := base.Count

	rng := rand.New(rand.NewSource(47))
	ov := graph.NewOverlay(g)
	old := g
	ctx := context.Background()
	for i := 0; i < batches; i++ {
		batch := updateBatch(rng, old, batchEdges)

		deltaStart := time.Now()
		res, err := ov.ApplyBatch(batch)
		if err != nil {
			return nil, fmt.Errorf("update: batch %d: %w", i, err)
		}
		neu := ov.Snapshot()
		d, err := delta.Enumerate(ctx, old, neu, res.Added, res.Removed, p, delta.Options{
			Workers: workers,
		})
		if err != nil {
			return nil, fmt.Errorf("update: batch %d delta: %w", i, err)
		}
		deltaMS := float64(time.Since(deltaStart).Microseconds()) / 1000

		fullStart := time.Now()
		full, err := core.Run(neu, p, core.Options{Workers: workers, Observer: Observer})
		if err != nil {
			return nil, fmt.Errorf("update: batch %d full rerun: %w", i, err)
		}
		fullMS := float64(time.Since(fullStart).Microseconds()) / 1000

		if count+d.Gained-d.Lost != full.Count {
			return nil, fmt.Errorf("update: batch %d: maintenance identity broken: %d + %d - %d != %d",
				i, count, d.Gained, d.Lost, full.Count)
		}
		count = full.Count
		old = neu
		rep.Runs = append(rep.Runs, UpdateRun{
			Batch:        i,
			EdgesAdded:   len(res.Added),
			EdgesRemoved: len(res.Removed),
			Gained:       d.Gained,
			Lost:         d.Lost,
			Count:        count,
			DeltaMS:      deltaMS,
			FullMS:       fullMS,
		})
		rep.DeltaTotalMS += deltaMS
		rep.FullTotalMS += fullMS
	}
	if rep.DeltaTotalMS > 0 {
		rep.UpdatesPerSec = float64(batches) / (rep.DeltaTotalMS / 1000)
		rep.Speedup = rep.FullTotalMS / rep.DeltaTotalMS
	}
	return rep, nil
}

// Update returns the text report of the dynamic-graph benchmark.
func Update() string { return mustText(runUpdate()) }

func (rep *UpdateReport) text() string {
	r := newReport("Dynamic graphs: delta maintenance vs full re-enumeration")
	r.row("batch", "+edges", "-edges", "gained", "lost", "count", "delta", "full rerun")
	for _, run := range rep.Runs {
		r.rowf("%d\t%d\t%d\t%d\t%d\t%d\t%.1fms\t%.1fms",
			run.Batch, run.EdgesAdded, run.EdgesRemoved, run.Gained, run.Lost,
			run.Count, run.DeltaMS, run.FullMS)
	}
	r.note("%s, %s: %.1f updates/s maintained; delta %.1fx cheaper than re-enumerating (%.0fms vs %.0fms total); every batch verified count(before)+gained-lost == count(after)",
		rep.Graph, rep.Pattern, rep.UpdatesPerSec, rep.Speedup, rep.DeltaTotalMS, rep.FullTotalMS)
	return r.String()
}

// UpdateJSON runs the dynamic-graph benchmark once and returns that one report
// both ways: the text table, and the indented JSON committed as
// BENCH_update.json.
func UpdateJSON() (text string, data []byte, err error) { return bothRenderings(runUpdate()) }
