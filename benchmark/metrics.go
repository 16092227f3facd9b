package main

import (
	"fmt"
	"io"
	"math"
)

// decl declares one metric of the benchmark. BENCHMARK.json lists the same
// names, units, directions and bounds; a test keeps the two in step.
type decl struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: allowed worsening as a share of the parent's median
	Exact  bool    // a count that repeats exactly for a fixed seed
}

// endToEnd is what a user of the system sees. Every workload reports every
// row; README.md says what op and op2 are on each workload.
var endToEnd = []decl{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "op_tail_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "op2_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "op2_tail_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "op2_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "alloc_mb_per_op", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// perLayer rows come from the traced run: the layer battery (layers.go), the
// workload's own server where it has one, and the span recorder.
var perLayer = []decl{
	// Set-up layers → setup_s.
	{Name: "gen.chunglu_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.build_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.fingerprint_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.degree_histogram_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.new_ms", Unit: "ms", Better: "lower"},
	// Graph-scoped state the engine rebuilds per run → short queries, updates.
	{Name: "graph.ordered_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.identity_ordered_ms", Unit: "ms", Better: "lower"},
	{Name: "bloom.build_ms", Unit: "ms", Better: "lower"},
	{Name: "bloom.bytes", Unit: "count", Better: "lower", Exact: true},
	{Name: "graph.bitmap_index_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.bitmap_bytes", Unit: "count", Better: "lower", Exact: true},
	{Name: "graph.owner_scan_ms", Unit: "ms", Better: "lower"},
	{Name: "core.empty_run_ms", Unit: "ms", Better: "lower"},
	// Plan.
	{Name: "pattern.parse_us", Unit: "us", Better: "lower"},
	{Name: "pattern.canonical_key_us", Unit: "us", Better: "lower"},
	{Name: "pattern.break_automorphisms_us", Unit: "us", Better: "lower"},
	{Name: "core.select_initial_us", Unit: "us", Better: "lower"},
	{Name: "serve.plan_cache_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "serve.plan_cache_misses", Unit: "count", Better: "lower", Exact: true},
	// Expansion: counts of the reference listing (pg1, pg2, pg3).
	{Name: "core.gpsi_generated", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.gpsi_processed", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.results", Unit: "count", Better: "higher", Exact: true},
	{Name: "core.supersteps", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.gpsi_per_result", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "core.pruned_by_degree", Unit: "count", Better: "higher", Exact: true},
	{Name: "core.pruned_by_order", Unit: "count", Better: "higher", Exact: true},
	{Name: "core.pruned_by_index", Unit: "count", Better: "higher", Exact: true},
	{Name: "core.pruned_by_verify", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.pruned_by_injectivity", Unit: "count", Better: "higher", Exact: true},
	{Name: "core.edge_index_queries", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.bitset_and_candidates", Unit: "count", Better: "higher", Exact: true},
	{Name: "bloom.false_positive_rate", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "core.load_makespan", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.load_imbalance", Unit: "ratio", Better: "lower", Exact: true},
	// Expansion: time of the reference listing.
	{Name: "core.worker_busy_s", Unit: "s", Better: "lower"},
	{Name: "core.expand_ns_per_gpsi", Unit: "ns", Better: "lower"},
	{Name: "core.simulated_makespan_s", Unit: "s", Better: "lower"},
	{Name: "core.barrier_wait_share", Unit: "ratio", Better: "lower"},
	{Name: "core.wall_s.pg1", Unit: "s", Better: "lower"},
	{Name: "core.wall_s.pg2", Unit: "s", Better: "lower"},
	{Name: "core.wall_s.pg3", Unit: "s", Better: "lower"},
	// core.HotpathBenchmarks via testing.Benchmark.
	{Name: "core.hotpath.expand_ns", Unit: "ns", Better: "lower"},
	{Name: "core.hotpath.expand-sparse-merge_ns", Unit: "ns", Better: "lower"},
	{Name: "core.hotpath.expand-hub-bitset_ns", Unit: "ns", Better: "lower"},
	{Name: "core.hotpath.expand-hub-merge_ns", Unit: "ns", Better: "lower"},
	{Name: "core.hotpath.gpsi-wire-roundtrip_ns", Unit: "ns", Better: "lower"},
	{Name: "core.hotpath.frame-flat-dense_ns", Unit: "ns", Better: "lower"},
	{Name: "core.hotpath.frame-compressed-dense_ns", Unit: "ns", Better: "lower"},
	// Exchange substrate, on a benchmark-owned 72-byte message.
	{Name: "bsp.frame_encode_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "bsp.frame_decode_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "bsp.compressed_encode_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "bsp.compressed_decode_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "bsp.compressed_ratio", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "bsp.exchange_local_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "bsp.exchange_tcp_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "bsp.exchange_async_tcp_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "bsp.barrier_us", Unit: "us", Better: "lower"},
	{Name: "bsp.tcp_mesh_setup_ms", Unit: "ms", Better: "lower"},
	{Name: "bsp.checkpoint_save_ms", Unit: "ms", Better: "lower"},
	{Name: "bsp.checkpoint_bytes", Unit: "count", Better: "lower"}, // gob-encoded timings: a few bytes vary
	// The reference listing's obs.Observer.
	{Name: "bsp.wire_bytes", Unit: "count", Better: "lower", Exact: true},
	{Name: "bsp.wire_frames", Unit: "count", Better: "lower", Exact: true},
	{Name: "bsp.bytes_per_msg", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "bsp.step_compute_s", Unit: "s", Better: "lower"},
	{Name: "bsp.step_exchange_s", Unit: "s", Better: "lower"},
	{Name: "bsp.exchange_share", Unit: "ratio", Better: "lower"},
	{Name: "bsp.retries", Unit: "count", Better: "lower", Exact: true},
	{Name: "obs.observer_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "obs.jsonl_overhead_pct", Unit: "%", Better: "lower"},
	// Serving tier.
	{Name: "serve.pre_engine_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.engine_share", Unit: "ratio", Better: "higher"},
	{Name: "serve.queue_wait_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.stream_first_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.stream_us_per_embedding", Unit: "us", Better: "lower"},
	{Name: "serve.completed", Unit: "count", Better: "higher"},
	{Name: "serve.rejected", Unit: "count", Better: "lower"},
	{Name: "serve.deadline_exceeded", Unit: "count", Better: "lower"},
	{Name: "serve.failed", Unit: "count", Better: "lower"},
	// Dynamic graph.
	{Name: "graph.overlay_apply_us", Unit: "us", Better: "lower"},
	{Name: "graph.overlay_snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.overlay_compactions", Unit: "count", Better: "lower"},
	{Name: "serve.update_publish_ms", Unit: "ms", Better: "lower"},
	{Name: "delta.enumerate_ms", Unit: "ms", Better: "lower"},
	{Name: "delta.noop_floor_ms", Unit: "ms", Better: "lower"},
	{Name: "delta.runs_per_batch", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "delta.gpsi_generated", Unit: "count", Better: "lower", Exact: true},
	{Name: "delta.gained", Unit: "count", Better: "higher", Exact: true},
	{Name: "delta.lost", Unit: "count", Better: "higher", Exact: true},
	{Name: "delta.full_recount_ms", Unit: "ms", Better: "lower"},
	{Name: "delta.speedup_vs_full", Unit: "ratio", Better: "higher"},
	{Name: "serve.sub_lag_ms", Unit: "ms", Better: "lower"},
	// The span recorder.
	{Name: "trace.coverage", Unit: "ratio", Better: "higher"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// value is one measured metric: the number reported, and the samples behind
// it when it is a statistic of several.
type value struct {
	V float64
	S *summary
}

// metricSet collects measured values by metric name. One goroutine fills it.
type metricSet struct {
	m map[string]value
}

func newMetricSet() *metricSet { return &metricSet{m: map[string]value{}} }

func (ms *metricSet) set(name string, v float64) { ms.m[name] = value{V: v} }

// setMedian stores the median of xs with its sample summary.
func (ms *metricSet) setMedian(name string, xs []float64) {
	s := summarize(xs)
	ms.m[name] = value{V: s.Median, S: &s}
}

func (ms *metricSet) get(name string) (value, bool) {
	v, ok := ms.m[name]
	return v, ok
}

// missing lists the declared metrics without a finite value.
func (ms *metricSet) missing(decls []decl) []string {
	var out []string
	for _, d := range decls {
		if v, ok := ms.get(d.Name); !ok || math.IsNaN(v.V) || math.IsInf(v.V, 0) {
			out = append(out, d.Name)
		}
	}
	return out
}

// print writes one line per declared metric: name, value, unit, direction,
// and the sample count and quartiles where the value is a statistic.
func (ms *metricSet) print(w io.Writer, workload string, decls []decl) {
	for _, d := range decls {
		v, ok := ms.get(d.Name)
		if !ok {
			continue
		}
		arrow := "↓"
		if d.Better == "higher" {
			arrow = "↑"
		}
		line := fmt.Sprintf("%-14s %-42s %14.6g %-6s %s", workload, d.Name, v.V, d.Unit, arrow)
		if v.S != nil {
			line += fmt.Sprintf("  n=%d q1=%.6g q3=%.6g", v.S.N, v.S.Q1, v.S.Q3)
		}
		if d.Bound > 0 {
			line += fmt.Sprintf("  bound=%g%%", d.Bound*100)
		}
		fmt.Fprintln(w, line)
	}
}
