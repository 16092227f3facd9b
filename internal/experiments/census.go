package experiments

// Census benchmarks the second engine (internal/esu): a full k-motif census
// at k=3 and k=4 over two power-law graphs, once with a single worker and a
// cold canonical-form memo cache, then with every core and the now-warm
// cache — the throughput and cache-amortization axes the PR-level acceptance
// tracks. CensusJSON emits the same numbers machine-readably for the
// committed BENCH_census.json baseline.

import (
	"fmt"
	"runtime"

	"psgl/internal/esu"
	"psgl/internal/gen"
	"psgl/internal/graph"
)

// CensusRun is one (graph, k, workers) census measurement in the baseline.
type CensusRun struct {
	Graph   string `json:"graph"`
	K       int    `json:"k"`
	Workers int    `json:"workers"`
	// Subgraphs is the total connected k-subgraph count (identical across
	// worker configurations of the same graph and k — asserted at run time).
	Subgraphs int64 `json:"subgraphs"`
	// Classes is the number of motif isomorphism classes found.
	Classes int `json:"classes"`
	// MotifsPerSec is the enumeration throughput: subgraphs classified per
	// second of wall time.
	MotifsPerSec float64 `json:"motifs_per_sec"`
	// CanonHitRate is the canonical-form memo cache hit fraction. The cache
	// is shared across the worker configurations of one (graph, k) pair, so
	// the first run reports the cold rate and later runs the warm (≈1.0) one.
	CanonHitRate float64 `json:"canon_hit_rate"`
	WallMS       float64 `json:"wall_ms"`
}

// CensusReport is the full machine-readable census baseline.
type CensusReport struct {
	Runs []CensusRun `json:"runs"`
}

// censusGraphs returns the power-law data graphs the census benchmark sweeps:
// one in the skewed regime the paper's web/communication analogues occupy and
// one mildly skewed (citation-like), both sized so a k=4 census finishes in
// seconds on one core.
func censusGraphs() []struct {
	name string
	g    *graph.Graph
} {
	return []struct {
		name string
		g    *graph.Graph
	}{
		{"chunglu-skewed", gen.ChungLu(2000, 6000, 1.8, 41)},
		{"chunglu-mild", gen.ChungLu(3000, 9000, 2.5, 43)},
	}
}

func runCensus() (*CensusReport, error) {
	rep := &CensusReport{}
	for _, gr := range censusGraphs() {
		for k := 3; k <= 4; k++ {
			cache := esu.NewCanonCache(k)
			var first int64 = -1
			for _, workers := range workerSweep() {
				res, err := esu.Count(gr.g, k, esu.Options{
					Workers:  workers,
					Cache:    cache,
					Observer: Observer,
				})
				if err != nil {
					return nil, fmt.Errorf("census %s k=%d workers=%d: %w", gr.name, k, workers, err)
				}
				if first < 0 {
					first = res.Subgraphs
				} else if res.Subgraphs != first {
					return nil, fmt.Errorf("census %s k=%d: workers=%d counted %d subgraphs, first run counted %d",
						gr.name, k, workers, res.Subgraphs, first)
				}
				rep.Runs = append(rep.Runs, CensusRun{
					Graph:        gr.name,
					K:            k,
					Workers:      workers,
					Subgraphs:    res.Subgraphs,
					Classes:      len(res.Classes),
					MotifsPerSec: float64(res.Subgraphs) / res.Wall.Seconds(),
					CanonHitRate: res.CacheHitRate(),
					WallMS:       float64(res.Wall.Microseconds()) / 1000,
				})
			}
		}
	}
	return rep, nil
}

// workerSweep returns the census worker configurations: single-threaded, then
// every core. On a single-core machine the second run still measures the
// warm-cache regime.
func workerSweep() []int {
	if n := runtime.NumCPU(); n > 1 {
		return []int{1, n}
	}
	return []int{1, 1}
}

// Census returns the text report of the motif-census benchmark.
func Census() string { return mustText(runCensus()) }

func (rep *CensusReport) text() string {
	r := newReport("Motif census: ESU engine throughput and cache amortization")
	r.row("graph", "k", "workers", "subgraphs", "classes", "motifs/s", "canon hit rate", "wall")
	for _, run := range rep.Runs {
		r.rowf("%s\t%d\t%d\t%d\t%d\t%.3g\t%.4f\t%.1fms",
			run.Graph, run.K, run.Workers, run.Subgraphs, run.Classes,
			run.MotifsPerSec, run.CanonHitRate, run.WallMS)
	}
	r.note("each (graph, k) pair shares one canonical-form memo cache: the first row is the cold rate, the second the warm one")
	return r.String()
}

// CensusJSON runs the census benchmark once and returns that one report both
// ways: the text table, and the indented JSON committed as BENCH_census.json.
func CensusJSON() (text string, data []byte, err error) { return bothRenderings(runCensus()) }
