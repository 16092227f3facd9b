package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"psgl/internal/centralized"
	"psgl/internal/graph"
	"psgl/internal/pattern"
)

// goldenPath is where -update-golden rewrites the embedded file, relative to
// the root of the checkout.
const goldenPath = "benchmark/golden.json"

//go:embed golden.json
var goldenJSON []byte

// golden holds oracle-verified embedding counts keyed by (graph spec, derived
// graph seed, pattern). The committed file covers the default seed; any other
// key is computed with the single-threaded oracle and kept for the rest of
// the run.
type golden struct {
	counts map[string]int64
}

func loadGolden() (*golden, error) {
	g := &golden{counts: map[string]int64{}}
	if err := json.Unmarshal(goldenJSON, &g.counts); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

func goldenKey(spec graphSpec, graphSeed int64, pat string) string {
	return fmt.Sprintf("%s/seed=%d/%s", spec, graphSeed, pat)
}

// expect returns the oracle count of each pattern on g, from the file when
// the key is known and from internal/centralized otherwise (at most nproc
// oracle runs at a time). oracle is the wall time spent computing.
func (gd *golden) expect(spec graphSpec, graphSeed int64, g *graph.Graph, patterns []string) (counts map[string]int64, oracle time.Duration, err error) {
	counts = map[string]int64{}
	var missing []string
	for _, pat := range patterns {
		if c, ok := gd.counts[goldenKey(spec, graphSeed, pat)]; ok {
			counts[pat] = c
		} else {
			missing = append(missing, pat)
		}
	}
	if len(missing) == 0 {
		return counts, 0, nil
	}
	start := time.Now()
	computed, err := oracleCounts(g, missing)
	if err != nil {
		return nil, 0, err
	}
	oracle = time.Since(start)
	for _, pat := range missing {
		counts[pat] = computed[pat]
		key := goldenKey(spec, graphSeed, pat)
		gd.counts[key] = computed[pat]
		fmt.Printf("oracle: %s = %d\n", key, computed[pat])
	}
	return counts, oracle, nil
}

// oracleCounts counts each pattern's instances in g with the single-threaded
// backtracking oracle, at most nproc patterns at a time.
func oracleCounts(g *graph.Graph, patterns []string) (map[string]int64, error) {
	parsed := make([]*pattern.Pattern, len(patterns))
	for i, pat := range patterns {
		p, err := pattern.Parse(pat)
		if err != nil {
			return nil, fmt.Errorf("oracle: pattern %q: %w", pat, err)
		}
		// The oracle counts each instance once only under a
		// symmetry-breaking order.
		parsed[i] = p.BreakAutomorphisms()
	}
	sem := make(chan struct{}, runtime.NumCPU())
	var wg sync.WaitGroup
	results := make([]int64, len(patterns))
	for i := range patterns {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			results[i] = centralized.CountInstances(parsed[i], g)
		}(i)
	}
	wg.Wait()
	counts := make(map[string]int64, len(patterns))
	for i, pat := range patterns {
		counts[pat] = results[i]
	}
	return counts, nil
}

// save rewrites the committed golden file with every key seen this run.
func (gd *golden) save() error {
	data, err := json.MarshalIndent(gd.counts, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(data, '\n'), 0o644)
}
