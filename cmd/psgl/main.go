// Command psgl runs one subgraph-listing job from the command line.
//
// Usage:
//
//	psgl -pattern pg2 -graph path/to/edges.txt [flags]
//	psgl -pattern triangle -gen "chunglu:20000:80000:1.8" [flags]
//	psgl -pattern "census(4)" -gen "chunglu:5000:15000:2.5" [flags]
//
// Generator specs: "er:N:M", "chunglu:N:M:GAMMA", "ba:N:K", "rmat:SCALE:M".
//
// census(k) selects the ESU motif-census engine instead of pattern listing:
// every connected k-vertex subgraph shape is counted and the motif histogram
// is printed as JSON. -workers, -timeout, -verify, -stats, and the
// observability flags apply; a listing-engine flag (strategy, budgets,
// exchange, checkpointing, -explain) set with census(k) is a usage error.
//
// Observability: -trace writes a JSONL trace of the run's events and prints
// the end-of-run report to stderr; -pprof-addr serves net/http/pprof, expvar
// counters (/debug/vars), and the live observer snapshot (/debug/obs).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"psgl"
	"psgl/internal/core"
	"psgl/internal/stats"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// listingFlags are the flags only the listing engine reads.
var listingFlags = map[string]bool{
	"strategy": true, "alpha": true, "initial": true, "max-intermediate": true,
	"tcp": true, "async": true, "compress": true,
	"checkpoint-dir": true, "checkpoint-every": true, "resume": true,
	"explain": true,
}

// run is main with its environment made explicit, so CLI behavior — flag
// validation above all — is testable in-process. It returns the exit code:
// 0 on success, 2 on usage errors, 1 on runtime failures.
func run(args []string, stdout, stderr io.Writer) int {
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "psgl: "+format+"\n", a...)
		return 1
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "psgl: "+format+"\n", a...)
		return 2
	}

	fs := flag.NewFlagSet("psgl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		graphPath   = fs.String("graph", "", "edge-list file to load (SNAP/KONECT format)")
		genSpec     = fs.String("gen", "", `generator spec: "er:N:M", "chunglu:N:M:GAMMA", "ba:N:K", "rmat:SCALE:M"`)
		patternName = fs.String("pattern", "pg1", `pattern DSL: pg1..pg5, triangle, square, diamond, house, "cycle(4)", "clique(4)", "path(3)", "star(5)", "edges(0-1,1-2,2-0)", or "census(4)" for the motif census`)
		workers     = fs.Int("workers", 8, "BSP worker count (>= 1)")
		strategy    = fs.String("strategy", "wa", "distribution strategy: random, roulette, wa")
		alpha       = fs.Float64("alpha", 0.5, "workload-aware penalty exponent (0,1]")
		initial     = fs.Int("initial", -1, "initial pattern vertex (-1 = automatic)")
		seed        = fs.Int64("seed", 1, "seed for partition and randomized strategies")
		budget      = fs.Int64("max-intermediate", 0, "abort after this many partial instances (0 = unlimited)")
		tcp         = fs.Bool("tcp", false, "route messages over loopback TCP")
		async       = fs.Bool("async", false, "pipelined async exchange: flush frames as produced, credit-based termination instead of barriers (counts identical to strict mode)")
		compress    = fs.Bool("compress", false, "prefix-compress Gpsi frames: front-coded wire format and encoded inboxes (counts identical to flat mode)")
		timeout     = fs.Duration("timeout", 0, "overall run timeout (0 = none); Ctrl-C also cancels cleanly")
		ckptDir     = fs.String("checkpoint-dir", "", "directory for barrier checkpoints (enables checkpointing)")
		ckptEvery   = fs.Int("checkpoint-every", 1, "checkpoint every N supersteps (with -checkpoint-dir)")
		resume      = fs.Bool("resume", false, "resume from the latest checkpoint in -checkpoint-dir")
		tracePath   = fs.String("trace", "", "write a JSONL trace of run events to this file and print the observability report")
		pprofAddr   = fs.String("pprof-addr", "", `serve net/http/pprof + expvar counters on this address (e.g. "localhost:6060")`)
		showStats   = fs.Bool("stats", false, "print detailed run statistics")
		explain     = fs.Bool("explain", false, "print the Algorithm 4 cost estimate per initial pattern vertex and exit")
		verify      = fs.Bool("verify", false, "cross-check the count against the single-thread oracle (slow on large graphs)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		return usage("unexpected arguments %q", fs.Args())
	}
	censusK, isCensus, err := psgl.ParseCensus(*patternName)
	if err != nil {
		return usage("%v", err)
	}
	if isCensus {
		// The census runs the ESU engine, which reads none of these: checked
		// before anything is built, so -checkpoint-dir creates no store.
		listingOnly := ""
		fs.Visit(func(f *flag.Flag) {
			if listingFlags[f.Name] && listingOnly == "" {
				listingOnly = f.Name
			}
		})
		if listingOnly != "" {
			return usage("-%s applies to pattern listing, not census queries", listingOnly)
		}
	}

	// Validate before anything reaches the engine: bad values would otherwise
	// surface as confusing failures (or silently normalize) deep in the run.
	if *workers < 1 {
		return usage("-workers must be >= 1, have %d", *workers)
	}
	if *initial < -1 {
		return usage("-initial must be a pattern vertex or -1 (automatic), have %d", *initial)
	}
	if *budget < 0 {
		return usage("-max-intermediate must be >= 0, have %d", *budget)
	}
	if *timeout < 0 {
		return usage("-timeout must be >= 0, have %v", *timeout)
	}
	if *ckptEvery < 1 {
		return usage("-checkpoint-every must be >= 1, have %d", *ckptEvery)
	}
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	opts := psgl.NewOptions()
	switch *strategy {
	case "random":
		opts.Strategy = psgl.StrategyRandom
	case "roulette":
		opts.Strategy = psgl.StrategyRoulette
	case "wa":
		opts.Strategy = psgl.StrategyWorkloadAware
	default:
		return usage("unknown strategy %q (want random, roulette, or wa)", *strategy)
	}
	if *alpha <= 0 || *alpha > 1 {
		return usage("-alpha must be in (0, 1], have %g", *alpha)
	}
	if *resume && *ckptDir == "" {
		return usage("-resume requires -checkpoint-dir")
	}
	if explicit["checkpoint-every"] && *ckptDir == "" {
		return usage("-checkpoint-every requires -checkpoint-dir")
	}

	g, err := loadGraph(*graphPath, *genSpec, *seed)
	if err != nil {
		return usage("%v", err)
	}
	var p *psgl.Pattern
	if !isCensus {
		p, err = psgl.ParsePattern(*patternName)
		if err != nil {
			return usage("%v", err)
		}
		if *initial >= p.N() {
			return usage("-initial %d is out of range [0,%d) for %s", *initial, p.N(), p.Name())
		}
		if *explain {
			explainInitialVertex(stdout, g, p)
			return 0
		}
	}

	opts.Workers = *workers
	opts.Alpha = *alpha
	opts.InitialVertex = *initial
	opts.Seed = *seed
	opts.MaxIntermediate = *budget
	if *tcp {
		opts.Exchange = psgl.NewTCPExchange()
	}
	opts.AsyncExchange = *async
	opts.CompressFrames = *compress
	if *ckptDir != "" {
		store, err := psgl.NewFileCheckpointStore(*ckptDir)
		if err != nil {
			return fail("%v", err)
		}
		opts.CheckpointEvery = *ckptEvery
		opts.CheckpointStore = store
		if *resume {
			opts.ResumeFrom = store
		}
	}

	// Observability: a JSONL trace file, the debug server, or both share one
	// observer. Without either flag no observer is attached at all.
	var observer *psgl.Observer
	var traceFile *os.File
	if *tracePath != "" {
		traceFile, err = os.Create(*tracePath)
		if err != nil {
			return fail("%v", err)
		}
		defer traceFile.Close()
		observer = psgl.NewObserver(psgl.NewJSONLSink(traceFile))
	} else if *pprofAddr != "" {
		observer = psgl.NewObserver(nil)
	}
	if *pprofAddr != "" {
		addr, err := psgl.ServeDebug(*pprofAddr, observer)
		if err != nil {
			return fail("pprof server: %v", err)
		}
		fmt.Fprintf(stderr, "debug server on http://%s/debug/pprof/ (also /debug/vars, /debug/obs)\n", addr)
	}
	opts.Observer = observer

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if isCensus {
		return runCensus(ctx, g, censusK, *workers, observer, *verify, *showStats, stdout, stderr)
	}

	fmt.Fprintf(stderr, "graph: %d vertices, %d edges; pattern: %s\n",
		g.NumVertices(), g.NumEdges(), p)
	start := time.Now()
	res, err := psgl.ListContext(ctx, g, p, opts)
	if observer != nil {
		observer.WriteReport(stderr)
	}
	if err != nil {
		if ctx.Err() != nil && *ckptDir != "" {
			return fail("%v (run state checkpointed in %s after %v; rerun with -resume to continue)",
				err, *ckptDir, time.Since(start).Round(time.Millisecond))
		}
		return fail("%v", err)
	}
	fmt.Fprintf(stdout, "%d\n", res.Count)
	if *verify {
		if want := psgl.CountCentralized(g, p); want != res.Count {
			return fail("VERIFICATION FAILED: psgl=%d oracle=%d", res.Count, want)
		}
		fmt.Fprintln(stderr, "verified against the single-thread oracle")
	}
	if *showStats {
		s := res.Stats
		fmt.Fprintf(stderr, "supersteps:       %d\n", s.Supersteps)
		fmt.Fprintf(stderr, "initial vertex:   v%d\n", s.InitialVertex+1)
		fmt.Fprintf(stderr, "gpsi generated:   %d\n", s.GpsiGenerated)
		fmt.Fprintf(stderr, "pruned: degree=%d order=%d injective=%d verify=%d\n",
			s.PrunedByDegree, s.PrunedByOrder, s.PrunedByInjectivity, s.PrunedByVerify)
		fmt.Fprintf(stderr, "load makespan:    %.0f units\n", s.LoadMakespan)
		fmt.Fprintf(stderr, "wall time:        %v\n", s.WallTime)
	}
	return 0
}

// runCensus runs the census(k) batch mode: the ESU engine enumerates every
// connected k-vertex subgraph and the motif histogram is printed as indented
// JSON on stdout (the classes carry their shapes in the DSL's edges(...) form
// so the output is self-describing).
func runCensus(ctx context.Context, g *psgl.Graph, k, workers int, observer *psgl.Observer, verify, showStats bool, stdout, stderr io.Writer) int {
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "psgl: "+format+"\n", a...)
		return 1
	}
	fmt.Fprintf(stderr, "graph: %d vertices, %d edges; census: k=%d\n",
		g.NumVertices(), g.NumEdges(), k)
	res, err := psgl.CensusContext(ctx, g, k, psgl.CensusOptions{Workers: workers, Observer: observer})
	if observer != nil {
		observer.WriteReport(stderr)
	}
	if err != nil {
		return fail("%v", err)
	}
	out, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return fail("%v", err)
	}
	stdout.Write(append(out, '\n'))
	if verify {
		if err := psgl.VerifyCensus(g, res); err != nil {
			return fail("VERIFICATION FAILED: %v", err)
		}
		fmt.Fprintln(stderr, "verified against the single-thread census oracle")
	}
	if showStats {
		fmt.Fprintf(stderr, "subgraphs:        %d in %d classes\n", res.Subgraphs, len(res.Classes))
		fmt.Fprintf(stderr, "canon cache:      %d hits / %d misses (%.4f hit rate)\n",
			res.CacheHits, res.CacheMisses, res.CacheHitRate())
		fmt.Fprintf(stderr, "workers:          %d\n", res.Workers)
		fmt.Fprintf(stderr, "wall time:        %v\n", res.Wall)
	}
	return 0
}

// explainInitialVertex prints the Algorithm 4 cost estimate for every
// possible initial pattern vertex and the rule-based recommendation.
func explainInitialVertex(w io.Writer, g *psgl.Graph, p *psgl.Pattern) {
	broken := p.BreakAutomorphisms()
	dist := stats.FromHistogram(g.DegreeHistogram())
	fmt.Fprintf(w, "initial-vertex cost estimates for %s (data graph: %d vertices, %d edges)\n",
		broken, g.NumVertices(), g.NumEdges())
	best := core.SelectInitialVertex(broken, dist)
	for v := 0; v < broken.N(); v++ {
		marker := " "
		if v == best {
			marker = "*"
		}
		fmt.Fprintf(w, "%s v%d: estimated Gpsi volume %.3g\n",
			marker, v+1, core.EstimateInitialVertexCost(broken, dist, v))
	}
	if broken.IsCycle() || broken.IsClique() {
		fmt.Fprintf(w, "pattern is a %s: Theorem 5 rule applies, lowest-rank vertex v%d is optimal\n",
			kindOf(broken), broken.LowestRankVertex()+1)
	}
}

func kindOf(p *psgl.Pattern) string {
	if p.IsClique() {
		return "clique"
	}
	return "cycle"
}

func loadGraph(path, spec string, seed int64) (*psgl.Graph, error) {
	switch {
	case path != "" && spec != "":
		return nil, fmt.Errorf("pass either -graph or -gen, not both")
	case path != "":
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return psgl.LoadEdgeList(f)
	case spec != "":
		return psgl.GenerateFromSpec(spec, seed)
	default:
		return nil, fmt.Errorf("one of -graph or -gen is required")
	}
}
