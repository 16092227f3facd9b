// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 7) on the synthetic dataset analogues. Each function
// returns a formatted text report with the same rows/series the paper plots;
// EXPERIMENTS.md records the measured output against the paper's claims.
//
// Every PSgL run of the paper's figures and tables here is the paper's
// vertex-partitioned model (core.PreparePartitioned, through runPartitioned):
// a worker checks a closing edge exactly only when it owns an endpoint, asks
// the light-weight edge index otherwise, and verifies a pending edge one
// superstep later. The product (core.Prepare) runs one memory domain instead,
// and its Gpsi counts do not reproduce the paper's.
//
// Two runtime metrics appear:
//   - wall: physical elapsed time; used when comparing different systems
//     (Figures 3, 7; Tables 3, 4), all of which parallelize on this machine.
//   - makespan: the Equation 3 cost Σ_s max_k L_ks from per-worker compute
//     times; used when the simulated worker count exceeds the physical core
//     count (Figures 5, 8).
package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"psgl/internal/afrati"
	"psgl/internal/core"
	"psgl/internal/datasets"
	"psgl/internal/graph"
	"psgl/internal/graphchi"
	"psgl/internal/obs"
	"psgl/internal/onehop"
	"psgl/internal/pattern"
	"psgl/internal/sgia"
	"psgl/internal/stats"
)

// workers is the standard worker count for cross-system experiments.
const workers = 8

type report struct {
	sb strings.Builder
	tw *tabwriter.Writer
}

func newReport(title string) *report {
	r := &report{}
	fmt.Fprintf(&r.sb, "== %s ==\n", title)
	r.tw = tabwriter.NewWriter(&r.sb, 2, 4, 2, ' ', 0)
	return r
}

func (r *report) row(cells ...string) {
	fmt.Fprintln(r.tw, strings.Join(cells, "\t"))
}

func (r *report) rowf(format string, args ...any) {
	fmt.Fprintf(r.tw, format+"\n", args...)
}

func (r *report) note(format string, args ...any) {
	r.tw.Flush()
	fmt.Fprintf(&r.sb, format+"\n", args...)
}

func (r *report) String() string {
	r.tw.Flush()
	return r.sb.String()
}

// textReport is a benchmark report that is also committed as a BENCH_*.json
// baseline: text renders the table psgl-bench prints.
type textReport interface{ text() string }

// mustText renders a run's report as text; experiments that only print have
// no error path, so a failed run panics.
func mustText[R textReport](rep R, err error) string {
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return rep.text()
}

// bothRenderings renders one run's report as text and as indented JSON, so the
// printed table and the committed baseline are the same measurement.
func bothRenderings[R textReport](rep R, err error) (string, []byte, error) {
	if err != nil {
		return "", nil, err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return "", nil, err
	}
	return rep.text(), append(data, '\n'), nil
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
}

// Observer, when non-nil, is attached to every PSgL engine run an experiment
// performs — the plumbing behind psgl-bench's -trace and -pprof-addr flags.
var Observer *obs.Observer

// obsOpts attaches the package Observer unless the options carry their own.
func obsOpts(opts core.Options) core.Options {
	if opts.Observer == nil {
		opts.Observer = Observer
	}
	return opts
}

// runPartitioned runs PSgL in the paper's partitioned model, with an edge
// index of bitsPerEdge bits per edge (0: none) and distribution strategy s:
// the one way every paper experiment runs it.
func runPartitioned(g *graph.Graph, p *pattern.Pattern, opts core.Options, bitsPerEdge int, s strategyConfig) (*core.Result, error) {
	return core.PreparePartitioned(g, opts, bitsPerEdge, s.strategy, s.alpha).RunContext(context.Background(), p, obsOpts(opts))
}

func runPSgL(g *graph.Graph, p *pattern.Pattern, opts core.Options, s strategyConfig) *core.Result {
	res, err := runPartitioned(g, p, opts, core.BloomBitsPerEdge, s)
	if err != nil {
		panic(fmt.Sprintf("experiments: psgl %s: %v", p.Name(), err))
	}
	return res
}

// Figure3 compares the five distribution strategies (Random, Roulette, WA-1,
// WA-0, WA-0.5) on the four panels of Figure 3: PG2 on webgoogle, wikitalk,
// uspatent and PG4 on livejournal. The paper's finding: WA-0.5 wins clearly
// on skewed graphs when middle iterations generate new Gpsis (PG2), is less
// dominant on the mildly skewed uspatent, and all strategies tie for the
// clique PG4 (only the first iteration generates Gpsis).
func Figure3() string {
	r := newReport("Figure 3: distribution strategies (Eq.3 load makespan, lower is better)")
	panels := []struct {
		graph string
		pat   *pattern.Pattern
	}{
		{"webgoogle", pattern.PG2()},
		{"wikitalk", pattern.PG2()},
		{"uspatent", pattern.PG2()},
		{"livejournal", pattern.PG4()},
	}
	r.row("panel", "Random", "Roulette", "(WA,1)", "(WA,0)", "(WA,0.5)", "count")
	for _, panel := range panels {
		g := datasets.MustLoad(panel.graph)
		cells := []string{fmt.Sprintf("%s on %s", panel.pat.Name(), panel.graph)}
		var count int64
		for _, cfg := range strategyConfigs() {
			res := runPSgL(g, panel.pat, core.Options{Workers: workers}, cfg)
			count = res.Count
			cells = append(cells, fmt.Sprintf("%.3g", res.Stats.LoadMakespan))
		}
		cells = append(cells, fmt.Sprintf("%d", count))
		r.row(cells...)
	}
	return r.String()
}

// strategyConfig is a distribution strategy and its α (workload-aware only).
type strategyConfig struct {
	name     string
	strategy core.Strategy
	alpha    float64
}

// paperDefault is the strategy every experiment but Figures 3 and 5 runs.
var paperDefault = strategyConfig{"(WA,0.5)", core.StrategyWorkloadAware, 0.5}

func strategyConfigs() []strategyConfig {
	return []strategyConfig{
		{"Random", core.StrategyRandom, 0},
		{"Roulette", core.StrategyRoulette, 0},
		{"(WA,1)", core.StrategyWorkloadAware, 1},
		{"(WA,0)", core.StrategyWorkloadAware, 0.001},
		paperDefault,
	}
}

// Figure5 reports each worker's accumulated compute time for PG2 on wikitalk
// under every strategy — the paper's per-worker balance plot. WA-0.5 should
// both balance the workers and minimize the slowest one.
func Figure5() string {
	r := newReport("Figure 5: per-worker load units, PG2 on wikitalk (52 workers)")
	g := datasets.MustLoad("wikitalk")
	const k = 52
	r.row("strategy", "min", "p50", "max", "imbalance(max/mean)", "load makespan")
	for _, cfg := range strategyConfigs() {
		res := runPSgL(g, pattern.PG2(), core.Options{Workers: k}, cfg)
		s := stats.Summarize(res.Stats.LoadUnits)
		r.rowf("%s\t%.3g\t%.3g\t%.3g\t%.2f\t%.3g",
			cfg.name, s.Min, s.P50, s.Max, s.ImbalanceFactor, res.Stats.LoadMakespan)
	}
	return r.String()
}

// Figure6 measures the influence of the initial pattern vertex: for each
// panel, every initial vertex's runtime is normalized to the best one. The
// paper's finding: gaps of 4x-285x on power-law graphs, ~1x on the random
// graph.
func Figure6() string {
	r := newReport("Figure 6: runtime ratio per initial pattern vertex (best = 1.0)")
	panels := []struct {
		graph string
		pats  []*pattern.Pattern
	}{
		{"livejournal", []*pattern.Pattern{pattern.PG1(), pattern.PG4()}},
		{"wikitalk", []*pattern.Pattern{pattern.PG2(), pattern.PG4()}},
		{"webgoogle", []*pattern.Pattern{pattern.PG1(), pattern.PG4()}},
		{"randgraph", []*pattern.Pattern{pattern.PG1(), pattern.PG2()}},
	}
	r.row("panel", "v1", "v2", "v3", "v4", "auto-pick")
	for _, panel := range panels {
		g := datasets.MustLoad(panel.graph)
		for _, p := range panel.pats {
			times := make([]float64, p.N())
			best := 0.0
			for v := 0; v < p.N(); v++ {
				opts := core.Options{Workers: workers, InitialVertex: v}
				res := runPSgL(g, p, opts, paperDefault)
				times[v] = float64(res.Stats.SimulatedMakespan.Microseconds())
				if best == 0 || times[v] < best {
					best = times[v]
				}
			}
			auto := runPSgL(g, p, core.Options{Workers: workers, InitialVertex: -1}, paperDefault)
			cells := []string{fmt.Sprintf("%s on %s", p.Name(), panel.graph)}
			for v := 0; v < 4; v++ {
				if v < p.N() {
					cells = append(cells, fmt.Sprintf("%.1f", times[v]/best))
				} else {
					cells = append(cells, "-")
				}
			}
			cells = append(cells, fmt.Sprintf("v%d", auto.Stats.InitialVertex+1))
			r.row(cells...)
		}
	}
	return r.String()
}

// Table2 measures the light-weight edge index's pruning ratio: the number of
// generated Gpsis with and without the index (plus an OOM row reproduced via
// a deliberately bounded intermediate budget, as in the paper's PG4 run).
func Table2() string {
	r := newReport("Table 2: pruning ratio of the edge index (Gpsi#)")
	// Budgets model per-node memory (≈0.5GB of in-flight Gpsis): ample for
	// the rows the paper reports numbers for, exceeded by the PG4 run whose
	// w/o-index configuration OOMed in the paper too.
	rows := []struct {
		graph   string
		pat     *pattern.Pattern
		initial int
		budget  int64 // for the w/o-index run
	}{
		{"livejournal", pattern.PG1(), 0, 20_000_000},
		{"livejournal", pattern.PG4(), 0, 20_000_000},
		{"wikitalk", pattern.PG4(), 0, 20_000_000},
		{"uspatent", pattern.PG5(), 0, 20_000_000},
		{"uspatent", pattern.PG5(), 2, 20_000_000},
	}
	r.row("graph", "pattern(init)", "Gpsi# w/ index", "Gpsi# w/o index", "pruning ratio")
	for _, row := range rows {
		g := datasets.MustLoad(row.graph)
		with := runPSgL(g, row.pat, core.Options{Workers: workers, InitialVertex: row.initial}, paperDefault)
		withoutOpts := core.Options{
			Workers:         workers,
			InitialVertex:   row.initial,
			MaxIntermediate: row.budget,
		}
		res, err := runPartitioned(g, row.pat, withoutOpts, 0, paperDefault)
		var withoutCell, ratioCell string
		if err != nil {
			withoutCell, ratioCell = "OOM", "unknown"
		} else {
			withoutCell = fmt.Sprintf("%.3g", float64(res.Stats.GpsiGenerated))
			ratio := 1 - float64(with.Stats.GpsiGenerated)/float64(res.Stats.GpsiGenerated)
			ratioCell = fmt.Sprintf("%.2f%%", 100*ratio)
		}
		r.rowf("%s\t%s(v%d)\t%.3g\t%s\t%s",
			row.graph, row.pat.Name(), row.initial+1,
			float64(with.Stats.GpsiGenerated), withoutCell, ratioCell)
	}
	return r.String()
}

// Figure7 compares PSgL with the two MapReduce baselines on PG1-PG4 across
// four graphs; each system's wall time is normalized to PSgL's ("runtime
// ratio"). The paper's finding: PSgL wins broadly (up to ~90% gains), and the
// two baselines surpass each other interleaved across datasets.
func Figure7() string {
	r := newReport("Figure 7: runtime ratio vs PSgL (wall time; PSgL = 1.0)")
	graphs := []string{"livejournal", "wikitalk", "webgoogle", "uspatent"}
	pats := []*pattern.Pattern{pattern.PG1(), pattern.PG2(), pattern.PG3(), pattern.PG4()}
	// Baselines get a shuffle budget (the paper likewise cut MapReduce cells
	// that did not finish within four hours); "DNF" marks a budget abort.
	const baselineBudget = 30_000_000
	r.row("pattern", "graph", "PSgL", "Afrati", "SGIA-MR", "count")
	for _, p := range pats {
		for _, name := range graphs {
			g := datasets.MustLoad(name)
			ps := runPSgL(g, p, core.Options{Workers: workers}, paperDefault)
			base := ps.Stats.WallTime.Seconds()
			af, err := afrati.Run(g, p, afrati.Options{Buckets: 6, MaxShufflePairs: baselineBudget})
			afCell := "DNF"
			if err == nil {
				if af.Count != ps.Count {
					afCell = fmt.Sprintf("MISMATCH(%d)", af.Count)
				} else {
					afCell = fmt.Sprintf("%.1f", af.Stats.WallTime.Seconds()/base)
				}
			}
			sg, err := sgia.Run(g, p, sgia.Options{MaxIntermediate: baselineBudget})
			sgCell := "DNF"
			if err == nil {
				if sg.Count != ps.Count {
					sgCell = fmt.Sprintf("MISMATCH(%d)", sg.Count)
				} else {
					sgCell = fmt.Sprintf("%.1f", sg.Stats.WallTime.Seconds()/base)
				}
			}
			r.rowf("%s\t%s\t1.0 (%s)\t%s\t%s\t%d",
				p.Name(), name, ms(ps.Stats.WallTime), afCell, sgCell, ps.Count)
		}
	}
	return r.String()
}

// Table3 reproduces the triangle-listing comparison on the two largest
// graphs: Afrati (MapReduce), the PowerGraph stand-in (one-hop engine), the
// GraphChi stand-in (centralized single-thread), and PSgL. Paper's shape:
// PowerGraph < PSgL < GraphChi ≪ Afrati.
func Table3() string {
	r := newReport("Table 3: triangle listing on large graphs (wall time)")
	r.row("graph", "Afrati", "PowerGraph~", "GraphChi~", "PSgL", "triangles")
	for _, name := range []string{"twitter", "wikipedia"} {
		g := datasets.MustLoad(name)
		ps := runPSgL(g, pattern.PG1(), core.Options{Workers: workers}, paperDefault)

		afStart := time.Now()
		af, err := afrati.Run(g, pattern.PG1(), afrati.Options{Buckets: 6})
		afT := time.Since(afStart)
		afCell := "fail"
		if err == nil && af.Count == ps.Count {
			afCell = ms(afT)
		}

		oh, err := onehop.Run(g, pattern.PG1(), onehop.Options{Workers: workers})
		ohCell := "fail"
		if err == nil && oh.Count == ps.Count {
			ohCell = ms(oh.Stats.WallTime)
		}

		gc, err := graphchi.CountTriangles(g, graphchi.Options{Shards: 8})
		gcCell := "fail"
		if err == nil {
			if gc.Triangles != ps.Count {
				gcCell = fmt.Sprintf("MISMATCH(%d)", gc.Triangles)
			} else {
				gcCell = ms(gc.Stats.BuildTime + gc.Stats.ComputeTime)
			}
		}

		r.rowf("%s\t%s\t%s\t%s\t%s\t%d", name, afCell, ohCell, gcCell, ms(ps.Stats.WallTime), ps.Count)
	}
	return r.String()
}

// Table4 reproduces the general-pattern comparison against the one-hop
// fixed-order engine, including traversal-order sensitivity and OOM rows
// (via bounded intermediate budgets). Paper's shape: the one-hop engine wins
// on PG2, degrades or OOMs on PG3 (bad order), PG4 and PG5; PSgL is robust
// throughout.
func Table4() string {
	r := newReport("Table 4: general patterns vs the one-hop engine (wall time)")
	type rowSpec struct {
		graph  string
		pat    *pattern.Pattern
		order  []int
		budget int64
	}
	// Budgets model per-node memory: enough for the well-ordered easy
	// patterns, exceeded by the blowup cases (the paper's OOM rows). The
	// paper runs PG5 on webgoogle; our webgoogle analogue is denser than
	// the original relative to its size and its house count explodes past
	// single-machine memory, so the PG5 row uses the uspatent analogue
	// (recorded in EXPERIMENTS.md).
	const nodeBudget = 16_000_000
	rows := []rowSpec{
		{"wikitalk", pattern.PG2(), []int{0, 1, 2, 3}, nodeBudget},
		{"wikitalk", pattern.PG3(), []int{1, 2, 3, 0}, nodeBudget},
		{"wikitalk", pattern.PG3(), []int{0, 1, 2, 3}, nodeBudget},
		{"wikitalk", pattern.PG4(), []int{0, 1, 2, 3}, nodeBudget},
		{"livejournal", pattern.PG4(), []int{0, 1, 2, 3}, nodeBudget},
		{"uspatent", pattern.PG5(), []int{0, 1, 4, 2, 3}, nodeBudget},
	}
	r.row("graph", "pattern", "order", "Afrati", "PowerGraph~", "PSgL", "count")
	for _, row := range rows {
		g := datasets.MustLoad(row.graph)
		ps, psErr := runPartitioned(g, row.pat, core.Options{Workers: workers, MaxIntermediate: 30_000_000}, core.BloomBitsPerEdge, paperDefault)
		psCell := "OOM"
		var count int64 = -1
		if psErr == nil {
			psCell = ms(ps.Stats.WallTime)
			count = ps.Count
		}

		orderCell := orderString(row.order)
		oh, err := onehop.Run(g, row.pat, onehop.Options{
			Workers:         workers,
			Order:           row.order,
			MaxIntermediate: row.budget,
		})
		ohCell := "OOM"
		if err == nil {
			if count >= 0 && oh.Count != count {
				ohCell = fmt.Sprintf("MISMATCH(%d)", oh.Count)
			} else {
				ohCell = ms(oh.Stats.WallTime)
			}
		}

		af, err := afrati.Run(g, row.pat, afrati.Options{Buckets: 6, MaxShufflePairs: 30_000_000})
		afCell := "OOM"
		if err == nil {
			if count >= 0 && af.Count != count {
				afCell = fmt.Sprintf("MISMATCH(%d)", af.Count)
			} else {
				afCell = ms(af.Stats.WallTime)
			}
		}

		r.rowf("%s\t%s\t%s\t%s\t%s\t%s\t%d",
			row.graph, row.pat.Name(), orderCell, afCell, ohCell, psCell, count)
	}
	return r.String()
}

func orderString(order []int) string {
	parts := make([]string, len(order))
	for i, v := range order {
		parts[i] = fmt.Sprintf("%d", v+1)
	}
	return strings.Join(parts, "->")
}

// Figure8 sweeps the worker count for PG2 on wikitalk and reports the
// simulated makespan next to the ideal (1/K) curve — the paper's near-linear
// scalability plot.
func Figure8() string {
	r := newReport("Figure 8: scalability with worker count, PG2 on wikitalk (Eq.3 load makespan)")
	g := datasets.MustLoad("wikitalk")
	counts := []int{1, 2, 5, 10, 20, 40, 80}
	r.row("workers", "load makespan", "ideal", "speedup", "count")
	var base float64
	for _, k := range counts {
		res := runPSgL(g, pattern.PG2(), core.Options{Workers: k}, paperDefault)
		mkspan := res.Stats.LoadMakespan
		if k == counts[0] {
			base = mkspan
		}
		r.rowf("%d\t%.3g\t%.3g\t%.2fx\t%d",
			k, mkspan, base/float64(k), base/mkspan, res.Count)
	}
	return r.String()
}

// Property1 verifies the nb/ns polarization of Section 3: after degree
// ordering, the nb distribution is more skewed (smaller fitted γ) and the
// ns distribution more balanced (larger fitted γ) than the raw degrees.
func Property1() string {
	r := newReport("Property 1: nb/ns distributions after degree ordering (webgoogle)")
	g := datasets.MustLoad("webgoogle")
	o := graph.NewOrdered(g)
	deg := make([]int32, g.NumVertices())
	for v := 0; v < g.NumVertices(); v++ {
		deg[v] = int32(g.Degree(graph.VertexID(v)))
	}
	// All three series are fitted at the same dmin (twice the mean degree)
	// so the exponents are comparable; the balanced ns series has almost no
	// tail above that threshold — which is the point — so its dmin clamps to
	// half its own maximum.
	degDist := stats.NewDistribution(deg)
	commonDmin := int(2 * degDist.Mean())
	if commonDmin < 6 {
		commonDmin = 6
	}
	fit := func(name string, xs []int32) {
		d := stats.NewDistribution(xs)
		dmin := commonDmin
		if dmin > d.Max()/2 {
			dmin = d.Max() / 2
		}
		gamma, err := d.PowerLawGamma(dmin)
		if err != nil {
			r.rowf("%s\tmax=%d\tmean=%.1f\tγ=fit-failed (%v)", name, d.Max(), d.Mean(), err)
			return
		}
		r.rowf("%s\tmax=%d\tmean=%.1f\tγ=%.2f (dmin=%d)", name, d.Max(), d.Mean(), gamma, dmin)
	}
	r.row("series", "max", "mean", "gamma")
	fit("degree", deg)
	fit("nb", o.NBValues())
	fit("ns", o.NSValues())
	r.note("paper (WebGoogle): degree γ=1.66 → nb γ=1.54 (more skewed), ns γ=3.97 (more balanced)")
	return r.String()
}

// Datasets prints Table 1: the paper's datasets next to this reproduction's
// synthetic analogues.
func Datasets() string {
	r := newReport("Table 1: datasets (paper original vs synthetic analogue)")
	r.row("name", "paper |V|", "paper |E|", "analogue |V|", "analogue |E|", "max deg", "fitted tail γ")
	for _, name := range datasets.Names() {
		spec, _ := datasets.Get(name)
		g := datasets.MustLoad(name)
		d := stats.FromHistogram(g.DegreeHistogram())
		avg := int(d.Mean())
		if avg < 1 {
			avg = 1
		}
		gammaCell := "-"
		if gamma, err := d.PowerLawGamma(5 * avg); err == nil {
			gammaCell = fmt.Sprintf("%.2f", gamma)
		}
		r.rowf("%s\t%s\t%s\t%d\t%d\t%d\t%s",
			name, spec.PaperVertices, spec.PaperEdges,
			g.NumVertices(), g.NumEdges(), g.MaxDegree(), gammaCell)
	}
	return r.String()
}

// All runs every experiment in paper order.
func All() string {
	var sb strings.Builder
	for _, fn := range []func() string{
		Datasets, Property1, Figure3, Figure5, Figure6, Table2, Figure7, Table3, Table4, Figure8, Makespan,
	} {
		sb.WriteString(fn())
		sb.WriteString("\n")
	}
	return sb.String()
}

// ByName resolves an experiment by CLI name.
func ByName(name string) (func() string, error) {
	m := map[string]func() string{
		"datasets":  Datasets,
		"property1": Property1,
		"fig3":      Figure3,
		"fig5":      Figure5,
		"fig6":      Figure6,
		"table2":    Table2,
		"fig7":      Figure7,
		"table3":    Table3,
		"table4":    Table4,
		"fig8":      Figure8,
		"makespan":  Makespan,
		"census":    Census,
		"all":       All,
	}
	fn, ok := m[name]
	if !ok {
		names := make([]string, 0, len(m))
		for k := range m {
			names = append(names, k)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, names)
	}
	return fn, nil
}
