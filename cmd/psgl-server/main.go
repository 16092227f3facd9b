// Command psgl-server runs the resident subgraph-listing query service: the
// data graph is loaded once, then pattern queries are answered over HTTP
// until the process is told to drain.
//
// Usage:
//
//	psgl-server -graph graph.txt -addr 127.0.0.1:8080
//	psgl-server -gen "chunglu:100000:500000:1.8" -max-inflight 4
//
// Query with any HTTP client:
//
//	curl 'localhost:8080/query?pattern=triangle&count_only=1'
//	curl 'localhost:8080/query?pattern=cycle(4)&limit=10'         # NDJSON stream
//	curl 'localhost:8080/stats'
//
// Mutate the resident graph and keep standing queries current:
//
//	curl -d '{"add":[[0,1],[1,2],[0,2]]}' localhost:8080/update
//	curl 'localhost:8080/subscribe?pattern=triangle'              # NDJSON deltas
//
// SIGTERM or SIGINT drains: new queries get 503, in-flight queries finish
// (up to -drain-timeout), then the process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"psgl"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// testListenerReady, when non-nil, observes the bound listen address — a
// test seam so in-process tests can use ":0" and still find the server.
var testListenerReady func(addr string)

// run is main with its environment made explicit, so CLI behavior — flag
// validation and the drain path above all — is testable in-process. It
// returns the exit code: 0 on a clean drain, 2 on usage errors, 1 on
// runtime failures.
func run(args []string, stdout, stderr io.Writer) int {
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "psgl-server: "+format+"\n", a...)
		return 1
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "psgl-server: "+format+"\n", a...)
		return 2
	}

	fs := flag.NewFlagSet("psgl-server", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		graphPath    = fs.String("graph", "", "edge-list file to load (SNAP/KONECT format)")
		genSpec      = fs.String("gen", "", `generator spec: "er:N:M", "chunglu:N:M:GAMMA", "ba:N:K", "rmat:SCALE:M"`)
		seed         = fs.Int64("seed", 1, "seed for graph generation and the engine's partitioning")
		addr         = fs.String("addr", "127.0.0.1:8080", "listen address")
		workers      = fs.Int("workers", 4, "BSP workers per query (>= 1)")
		maxInFlight  = fs.Int("max-inflight", 2, "queries executing concurrently (>= 1)")
		maxQueue     = fs.Int("max-queue", 8, "queries waiting behind the execution slots before 429 (>= 0)")
		defDeadline  = fs.Duration("default-deadline", 30*time.Second, "deadline for queries without deadline_ms (> 0)")
		maxDeadline  = fs.Duration("max-deadline", 5*time.Minute, "cap on client-supplied deadlines (> 0)")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "how long to wait for in-flight queries on shutdown")
		tracePath    = fs.String("trace", "", "write a JSONL trace of every query's events to this file")
		compactAt    = fs.Int("compact-threshold", 1024, "fold the mutation overlay's patch into a fresh base once it reaches this many edges; 0 disables compaction")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		return usage("unexpected arguments %q", fs.Args())
	}
	if *workers < 1 {
		return usage("-workers must be >= 1, have %d", *workers)
	}
	if *maxInFlight < 1 {
		return usage("-max-inflight must be >= 1, have %d", *maxInFlight)
	}
	if *maxQueue < 0 {
		return usage("-max-queue must be >= 0, have %d", *maxQueue)
	}
	if *defDeadline <= 0 {
		return usage("-default-deadline must be > 0, have %v", *defDeadline)
	}
	if *maxDeadline <= 0 {
		return usage("-max-deadline must be > 0, have %v", *maxDeadline)
	}
	if *compactAt < 0 {
		return usage("-compact-threshold must be >= 0, have %d", *compactAt)
	}

	cfg := psgl.ServerConfig{
		Workers:          *workers,
		Seed:             *seed,
		MaxInFlight:      *maxInFlight,
		MaxQueue:         *maxQueue,
		DefaultDeadline:  *defDeadline,
		MaxDeadline:      *maxDeadline,
		CompactThreshold: *compactAt,
	}
	// -compact-threshold 0 must mean "never compact", which the config
	// spells as -1 (0 asks for the default).
	if *compactAt == 0 {
		cfg.CompactThreshold = -1
	}
	// -max-queue 0 must mean "no queue", which the config spells as -1.
	if *maxQueue == 0 {
		cfg.MaxQueue = -1
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
	// The trace file is created only once the graph has loaded, so a usage
	// error never truncates an existing file.
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return fail("%v", err)
		}
		defer f.Close()
		cfg.TraceSink = psgl.NewJSONLSink(f)
	}

	srv, err := psgl.NewServer(g, cfg)
	if err != nil {
		return fail("%v", err)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fail("%v", err)
	}
	fmt.Fprintf(stderr, "psgl-server: %d vertices, %d edges resident; serving on http://%s (/query, /update, /subscribe, /healthz, /stats, /debug/)\n",
		g.NumVertices(), g.NumEdges(), ln.Addr())
	if testListenerReady != nil {
		testListenerReady(ln.Addr().String())
	}

	hs := &http.Server{Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		return fail("%v", err)
	case <-ctx.Done():
	}
	stop() // a second signal now kills the process the default way
	fmt.Fprintln(stderr, "psgl-server: shutdown signal; draining in-flight queries")
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		hs.Close()
		return fail("drain: %v", err)
	}
	if err := hs.Shutdown(dctx); err != nil {
		return fail("shutdown: %v", err)
	}
	fmt.Fprintln(stderr, "psgl-server: drained, exiting")
	return 0
}
