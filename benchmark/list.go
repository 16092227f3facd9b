package main

import (
	"context"
	"math/rand"
	"time"

	"psgl/internal/bloom"
	"psgl/internal/bsp"
	"psgl/internal/core"
	"psgl/internal/graph"
	"psgl/internal/obs"
	"psgl/internal/pattern"
	"psgl/internal/stats"
)

// listInstance is a set-up listing workload: the generated graph, the parsed
// patterns, and the oracle counts every op is checked against.
type listInstance struct {
	def      workloadDef
	g        *graph.Graph
	patterns []*pattern.Pattern
	expected map[string]int64
	// rng draws, from -seed, which loop goes first and the order of the
	// patterns within each op; nextAsync then alternates strict and async
	// ops, across passes too.
	rng       *rand.Rand
	nextAsync bool
	// rebuilds caches the standalone replay of the four graph-scoped builds
	// the engine repeats per run; the traced pass lays them into each run
	// span.
	rebuilds []namedDuration
}

func setupList(def workloadDef, in inputs) (instance, error) {
	li := &listInstance{def: def, g: def.Graph.generate(def.GraphSeed), rng: rand.New(rand.NewSource(in.querySeed))}
	li.nextAsync = li.rng.Intn(2) == 1
	for _, name := range def.Patterns {
		p, err := pattern.Parse(name)
		if err != nil {
			return nil, err
		}
		li.patterns = append(li.patterns, p)
	}
	// What a batch caller pays before its first listing: the graph's
	// identity and degree statistics, and one plan per pattern.
	li.g.Fingerprint()
	for _, p := range li.patterns {
		li.plan(p)
	}
	return li, nil
}

func (li *listInstance) graph() *graph.Graph                 { return li.g }
func (li *listInstance) goldenPatterns() []string            { return li.def.Patterns }
func (li *listInstance) setExpected(c map[string]int64)      { li.expected = c }
func (li *listInstance) finish(*recorder) map[string]float64 { return nil }
func (li *listInstance) close()                              {}

// plan breaks the pattern's automorphisms and selects its initial vertex
// against the graph's degree distribution — the query-scoped part of engine
// set-up, done here so the traced pass can attribute it.
func (li *listInstance) plan(p *pattern.Pattern) (*pattern.Pattern, int) {
	planned := p.BreakAutomorphisms()
	return planned, core.SelectInitialVertex(planned, stats.FromHistogram(li.g.DegreeHistogram()))
}

func (li *listInstance) options(async bool) core.Options {
	opts := core.NewOptions()
	opts.Workers = li.def.Workers
	opts.Seed = li.def.EngineSeed
	opts.AsyncExchange = async
	if li.def.TCP {
		opts.Exchange = bsp.NewTCPExchangeFactory()
	}
	return opts
}

// runOp lists every pattern of the workload once and checks each count.
func (li *listInstance) runOp(async bool, rec *recorder, tr *tracer) time.Duration {
	op := tr.newOp()
	name := "list.op"
	if async {
		name = "list.op.async"
	}
	start := time.Now()
	root := tr.begin(-1, op, name)
	for _, i := range li.rng.Perm(len(li.patterns)) {
		planSpan := tr.begin(root, op, "plan")
		planned, initial := li.plan(li.patterns[i])
		tr.end(planSpan)

		opts := li.options(async)
		opts.PlannedPattern = true
		opts.InitialVertex = initial
		if tr != nil {
			opts.Observer = obs.New(nil)
		}
		runSpan := tr.begin(root, op, "core.run")
		res, err := core.RunContext(context.Background(), li.g, planned, opts)
		tr.end(runSpan)
		patName := li.def.Patterns[i]
		if err != nil {
			rec.check(false, "%s %s: %v", name, patName, err)
			continue
		}
		rec.check(res.Count == li.expected[patName], "%s %s: count %d, oracle %d", name, patName, res.Count, li.expected[patName])
		if tr != nil {
			parts := append([]namedDuration(nil), li.graphRebuilds()...)
			for _, st := range opts.Observer.Steps() {
				parts = append(parts,
					namedDuration{"bsp.step.compute", st.Compute},
					namedDuration{"bsp.step.exchange", st.Exchange})
			}
			tr.addSynthetic(runSpan, parts)
		}
	}
	tr.end(root)
	return time.Since(start)
}

// graphRebuilds times, once, the four graph-scoped builds core.RunContext
// repeats on every run, by calling them standalone with the run's arguments.
func (li *listInstance) graphRebuilds() []namedDuration {
	if li.rebuilds == nil {
		timed := func(name string, fn func()) {
			start := time.Now()
			fn()
			li.rebuilds = append(li.rebuilds, namedDuration{name, time.Since(start)})
		}
		timed("graph.ordered", func() { graph.NewOrdered(li.g) })
		timed("bloom.build", func() { bloom.BuildEdgeIndex(li.g, 10) })
		timed("graph.bitmap_index", func() { graph.NewBitmapIndex(li.g, 0) })
		timed("graph.owner_scan", func() { ownerScan(li.g, li.def.Workers, li.def.EngineSeed) })
	}
	return li.rebuilds
}

// ownerScan buckets every vertex by owning worker, as the engine does.
func ownerScan(g *graph.Graph, workers int, seed int64) [][]graph.VertexID {
	part := graph.NewPartition(workers, seed)
	owned := make([][]graph.VertexID, workers)
	for v := 0; v < g.NumVertices(); v++ {
		w := part.Owner(graph.VertexID(v))
		owned[w] = append(owned[w], graph.VertexID(v))
	}
	return owned
}

func (li *listInstance) warm(rec *recorder) {
	li.runOp(false, rec, nil)
	li.runOp(true, rec, nil)
}

func (li *listInstance) loop(d time.Duration, rec *recorder, tr *tracer) (opWindow, op2Window time.Duration) {
	deadline := time.Now().Add(d)
	for done := 0; done < 2 || time.Now().Before(deadline); done++ {
		took := li.runOp(li.nextAsync, rec, tr)
		if li.nextAsync {
			rec.add("op2", took)
			op2Window += took
		} else {
			rec.add("op", took)
			opWindow += took
		}
		li.nextAsync = !li.nextAsync
	}
	return opWindow, op2Window
}
