package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
)

// manifest is the part of BENCHMARK.json compare needs.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

func readRunSet(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec runRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// series is one (workload, metric) row's values over a run set, by seed.
type series struct {
	values []float64
	bySeed map[int64]float64
}

type seriesKey struct{ workload, metric string }

func collect(recs []runRecord) (map[seriesKey]*series, []string) {
	out := map[seriesKey]*series{}
	var workloads []string
	seen := map[string]bool{}
	for _, rec := range recs {
		if !seen[rec.Workload] {
			seen[rec.Workload] = true
			workloads = append(workloads, rec.Workload)
		}
		for _, r := range rec.Rows {
			k := seriesKey{rec.Workload, r.Name}
			if out[k] == nil {
				out[k] = &series{bySeed: map[int64]float64{}}
			}
			out[k].values = append(out[k].values, r.Value)
			out[k].bySeed[rec.Seed] = r.Value
		}
	}
	return out, workloads
}

// Verdicts of one end-to-end row.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge compares two run sets' values of one bounded metric. worse is how
// much B's median is worse than A's, as a share of A's median (negative when
// B is better); noise is the wider of the two sets' quartile spreads. A row
// whose noise exceeds its bound is unresolved whatever the medians say;
// otherwise it regressed when worse exceeds the bound.
func judge(a, b []float64, better string, bound float64) (worse, noise float64, verdict string) {
	ma, mb := median(a), median(b)
	worse = (mb - ma) / math.Abs(ma)
	if better == "higher" {
		worse = -worse
	}
	noise = math.Max(spread(a), spread(b))
	switch {
	case noise > bound:
		verdict = verdictUnresolved
	case worse > bound:
		verdict = verdictRegressed
	default:
		verdict = verdictOK
	}
	return worse, noise, verdict
}

// exactMatch reports whether two series agree on every seed they share.
func exactMatch(a, b *series) bool {
	for seed, v := range a.bySeed {
		if w, ok := b.bySeed[seed]; ok && w != v {
			return false
		}
	}
	return true
}

// compareMain implements `compare A.jsonl B.jsonl`: one line per (metric,
// workload) with both medians, the change, the row's bound and a verdict.
// It returns 1 when any bounded row regressed.
func compareMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	manifestPath := fs.String("manifest", "BENCHMARK.json", "the BENCHMARK.json the bounds are read from")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: compare [-manifest BENCHMARK.json] A.jsonl B.jsonl")
		return 2
	}
	m, err := readManifest(*manifestPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	var sets [2]map[seriesKey]*series
	var workloads []string
	for i, path := range fs.Args() {
		recs, err := readRunSet(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "compare:", err)
			return 2
		}
		var ws []string
		sets[i], ws = collect(recs)
		if i == 0 {
			workloads = ws
		}
	}
	exact := map[string]bool{}
	for _, d := range perLayer {
		exact[d.Name] = d.Exact
	}

	counts := map[string]int{}
	fmt.Fprintf(out, "%-14s %-42s %14s %14s %9s %7s %7s  %s\n", "workload", "metric", "median A", "median B", "worse", "noise", "bound", "verdict")
	for _, w := range workloads {
		for _, mm := range append(append([]manifestMetric(nil), m.EndToEnd...), m.PerLayer...) {
			a, b := sets[0][seriesKey{w, mm.Name}], sets[1][seriesKey{w, mm.Name}]
			if a == nil || b == nil {
				continue
			}
			worse, noise, verdict := judge(a.values, b.values, mm.Better, mm.Bound)
			bound := fmt.Sprintf("%.0f%%", mm.Bound*100)
			if mm.Bound == 0 {
				// Per-layer rows carry no bound: the change is shown, and
				// counts that must repeat are checked seed by seed.
				bound, verdict = "-", "-"
				if exact[mm.Name] {
					verdict = "exact"
					if !exactMatch(a, b) {
						verdict = "differs"
					}
				}
			}
			counts[verdict]++
			fmt.Fprintf(out, "%-14s %-42s %14.6g %14.6g %+8.1f%% %6.1f%% %7s  %s\n",
				w, mm.Name, median(a.values), median(b.values), worse*100, noise*100, bound, verdict)
		}
	}
	fmt.Fprintf(out, "rows: %d ok, %d regressed, %d unresolved; counts: %d exact, %d differ\n",
		counts[verdictOK], counts[verdictRegressed], counts[verdictUnresolved], counts["exact"], counts["differs"])
	if counts[verdictRegressed] > 0 {
		return 1
	}
	return 0
}
