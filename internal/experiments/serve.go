package experiments

// Serve benchmarks the resident query service (internal/serve): queries per
// second and latency percentiles for count-only queries over HTTP at
// increasing client concurrency, on the Chung–Lu analogue with PG1 and PG3.
// This is the serving-mode counterpart of the batch experiments: the graph
// is loaded once, the plan cache is warm after the first query per pattern,
// and each query still runs the full PSgL engine.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"psgl/internal/gen"
	"psgl/internal/serve"
)

// ServeResult is one (pattern, concurrency) cell of the serving benchmark.
type ServeResult struct {
	Pattern     string  `json:"pattern"`
	Concurrency int     `json:"concurrency"`
	Queries     int     `json:"queries"`
	QPS         float64 `json:"qps"`
	P50Ms       float64 `json:"p50_ms"`
	P99Ms       float64 `json:"p99_ms"`
}

// ServeReport is the machine-readable serving baseline (BENCH_serve.json).
type ServeReport struct {
	Graph          string        `json:"graph"`
	WorkersPerRun  int           `json:"workers_per_run"`
	MaxInFlight    int           `json:"max_inflight"`
	Cells          []ServeResult `json:"cells"`
	PlanCacheHits  int64         `json:"plan_cache_hits"`
	PlanCacheMiss  int64         `json:"plan_cache_misses"`
	QueriesServed  int64         `json:"queries_served"`
	QueriesDropped int64         `json:"queries_rejected"`
}

const (
	serveGraphSpec   = "chunglu:2000:8000:1.8"
	serveQueriesCell = 64
	serveMaxInFlight = 8
	serveWorkers     = 2
)

var serveConcurrencies = []int{1, 8, 64}

func runServe() (*ServeReport, error) {
	g := gen.ChungLu(2000, 8000, 1.8, 7)
	srv, err := serve.New(g, serve.Config{
		Workers:     serveWorkers,
		MaxInFlight: serveMaxInFlight,
		MaxQueue:    4096, // the benchmark measures latency under load, not rejection
	})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	rep := &ServeReport{
		Graph:         serveGraphSpec,
		WorkersPerRun: serveWorkers,
		MaxInFlight:   serveMaxInFlight,
	}
	for _, pat := range []string{"pg1", "pg3"} {
		url := ts.URL + "/query?count_only=1&pattern=" + pat
		// One warm-up query builds the plan-cache entry so every measured
		// query exercises the steady state.
		if err := serveOneQuery(client, url); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", pat, err)
		}
		for _, conc := range serveConcurrencies {
			cell, err := serveCell(client, url, pat, conc)
			if err != nil {
				return nil, err
			}
			rep.Cells = append(rep.Cells, *cell)
		}
	}
	st := srv.Stats()
	rep.PlanCacheHits = st.Plans.Hits
	rep.PlanCacheMiss = st.Plans.Misses
	rep.QueriesServed = st.Queries.Completed
	rep.QueriesDropped = st.Queries.Rejected
	return rep, nil
}

func serveOneQuery(client *http.Client, url string) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	var body struct {
		Count int64 `json:"count"`
	}
	return json.NewDecoder(resp.Body).Decode(&body)
}

func serveCell(client *http.Client, url, pat string, conc int) (*ServeResult, error) {
	latencies := make([]time.Duration, serveQueriesCell)
	jobs := make(chan int)
	errs := make(chan error, conc)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				qStart := time.Now()
				if err := serveOneQuery(client, url); err != nil {
					select {
					case errs <- err:
					default:
					}
					return
				}
				latencies[i] = time.Since(qStart)
			}
		}()
	}
	for i := 0; i < serveQueriesCell; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errs:
		return nil, fmt.Errorf("serve bench %s@%d: %w", pat, conc, err)
	default:
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	p := func(q float64) float64 {
		idx := int(q * float64(len(latencies)))
		if idx >= len(latencies) {
			idx = len(latencies) - 1
		}
		return float64(latencies[idx].Microseconds()) / 1000
	}
	return &ServeResult{
		Pattern:     pat,
		Concurrency: conc,
		Queries:     serveQueriesCell,
		QPS:         float64(serveQueriesCell) / elapsed.Seconds(),
		P50Ms:       p(0.50),
		P99Ms:       p(0.99),
	}, nil
}

// Serve returns the text report of the serving benchmark.
func Serve() string { return mustText(runServe()) }

func (rep *ServeReport) text() string {
	r := newReport("Resident query service: qps and latency by client concurrency")
	r.row("pattern", "clients", "queries", "qps", "p50", "p99")
	for _, c := range rep.Cells {
		r.rowf("%s\t%d\t%d\t%.0f\t%.1fms\t%.1fms", c.Pattern, c.Concurrency, c.Queries, c.QPS, c.P50Ms, c.P99Ms)
	}
	r.note("graph %s; %d engine workers/query, %d queries in flight max; plan cache: %d hits, %d misses",
		rep.Graph, rep.WorkersPerRun, rep.MaxInFlight, rep.PlanCacheHits, rep.PlanCacheMiss)
	return r.String()
}

// ServeJSON runs the serving benchmark once and returns that one report both
// ways: the text table, and the indented JSON committed as BENCH_serve.json.
func ServeJSON() (text string, data []byte, err error) { return bothRenderings(runServe()) }
