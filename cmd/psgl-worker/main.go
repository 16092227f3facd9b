// Command psgl-worker runs one remote worker of a psgl-server worker plane:
// it loads the same data graph as the coordinator (checked by fingerprint at
// join), registers, heartbeats, and executes the queries the coordinator
// dispatches to its /exec endpoint.
//
// Usage:
//
//	psgl-server -gen "er:1000:5000" -worker-plane -addr 127.0.0.1:8080 &
//	psgl-worker -gen "er:1000:5000" -coordinator http://127.0.0.1:8080 -id w1 &
//	psgl-worker -gen "er:1000:5000" -coordinator http://127.0.0.1:8080 -id w2 &
//	curl 'localhost:8080/query?pattern=triangle&count_only=1'
//
// The graph flags (-graph/-gen/-seed) must match the coordinator's exactly;
// a worker resident over a different graph is rejected permanently at join.
// SIGTERM or SIGINT leaves the registry gracefully, drains in-flight
// queries, and exits 0. A killed worker (no goodbye) is evicted by the
// coordinator after its heartbeat misses accumulate.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"psgl"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// testWorkerReady, when non-nil, observes the worker's bound /exec address —
// a test seam for in-process CLI tests.
var testWorkerReady func(addr string)

// run is main with its environment made explicit: 0 on clean shutdown, 2 on
// usage errors, 1 on runtime failures (join rejected, coordinator gone).
func run(args []string, stdout, stderr io.Writer) int {
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "psgl-worker: "+format+"\n", a...)
		return 1
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "psgl-worker: "+format+"\n", a...)
		return 2
	}

	fs := flag.NewFlagSet("psgl-worker", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		graphPath   = fs.String("graph", "", "edge-list file to load (must match the coordinator's graph)")
		genSpec     = fs.String("gen", "", `generator spec, e.g. "er:N:M" (must match the coordinator's)`)
		seed        = fs.Int64("seed", 1, "seed for generation and partitioning (must match the coordinator's)")
		coordinator = fs.String("coordinator", "", "coordinator base URL, e.g. http://127.0.0.1:8080 (required)")
		id          = fs.String("id", "", "stable worker name; restarts keep the name and get a new generation (required)")
		addr        = fs.String("addr", "127.0.0.1:0", "listen address for the /exec endpoint")
		workers     = fs.Int("workers", 4, "BSP workers per query (>= 1)")
		maxInFlight = fs.Int("max-inflight", 2, "queries executing concurrently (>= 1)")
		async       = fs.Bool("async", false, "execute dispatched count queries on the pipelined async BSP exchange (counts identical to strict mode); streams always run on it")
		compress    = fs.Bool("compress", false, "prefix-compress Gpsi frames on dispatched queries (counts identical to flat mode)")
		drainT      = fs.Duration("drain-timeout", 30*time.Second, "how long to wait for in-flight queries on shutdown")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		return usage("unexpected arguments %q", fs.Args())
	}
	if *coordinator == "" {
		return usage("-coordinator is required")
	}
	if *id == "" {
		return usage("-id is required")
	}
	if *workers < 1 {
		return usage("-workers must be >= 1, have %d", *workers)
	}
	if *maxInFlight < 1 {
		return usage("-max-inflight must be >= 1, have %d", *maxInFlight)
	}

	var g *psgl.Graph
	var err error
	switch {
	case *graphPath != "" && *genSpec != "":
		return usage("pass either -graph or -gen, not both")
	case *graphPath != "":
		f, err := os.Open(*graphPath)
		if err != nil {
			return usage("%v", err)
		}
		g, err = psgl.LoadEdgeList(f)
		f.Close()
		if err != nil {
			return usage("loading %s: %v", *graphPath, err)
		}
	case *genSpec != "":
		g, err = psgl.GenerateFromSpec(*genSpec, *seed)
		if err != nil {
			return usage("%v", err)
		}
	default:
		return usage("one of -graph or -gen is required")
	}

	w, err := psgl.StartRemoteWorker(g, psgl.RemoteWorkerConfig{
		ID:          *id,
		Coordinator: *coordinator,
		ListenAddr:  *addr,
		Serve: psgl.ServerConfig{
			Workers:        *workers,
			Seed:           *seed,
			MaxInFlight:    *maxInFlight,
			AsyncExchange:  *async,
			CompressFrames: *compress,
		},
	})
	if err != nil {
		return fail("%v", err)
	}
	fmt.Fprintf(stderr, "psgl-worker: %s (gen %d) serving %d vertices on %s for %s\n",
		*id, w.Gen(), g.NumVertices(), w.Addr(), *coordinator)
	// Catch signals before announcing readiness: a SIGTERM that lands first
	// would otherwise kill the process instead of draining it.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if testWorkerReady != nil {
		testWorkerReady(w.Addr())
	}
	<-ctx.Done()
	stop()
	fmt.Fprintln(stderr, "psgl-worker: shutdown signal; leaving registry and draining")
	dctx, cancel := context.WithTimeout(context.Background(), *drainT)
	defer cancel()
	if err := w.Stop(dctx); err != nil {
		return fail("stop: %v", err)
	}
	fmt.Fprintln(stderr, "psgl-worker: stopped, exiting")
	return 0
}
