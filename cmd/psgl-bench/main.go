// Command psgl-bench regenerates the tables and figures of the paper's
// evaluation (Section 7) on the synthetic dataset analogues.
//
// Usage:
//
//	psgl-bench [flags] <experiment>
//
// where <experiment> is one of: datasets, property1, fig3, fig5, fig6,
// table2, fig7, table3, table4, fig8, makespan, census, or all.
//
// `psgl-bench census` sweeps the ESU motif-census engine (k=3,4 over two
// power-law graphs, single-worker cold cache then all-core warm cache) and
// writes BENCH_census.json (subgraph throughput and canon-cache hit rates).
// The file is written into the current directory. The product's layers
// (hot path, serving, graph updates) are measured by the benchmark/ module.
//
// Observability: `psgl-bench -trace out.jsonl <experiment>` attaches an
// observer to every PSgL run the experiment performs, writes the JSONL event
// trace to out.jsonl, and prints the end-of-run report; -pprof-addr serves
// net/http/pprof, expvar counters (/debug/vars), and the live observer
// snapshot (/debug/obs) while the experiment runs.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"psgl"
	"psgl/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// baselines are the experiments whose report is also committed as
// machine-readable JSON, written to file in the current directory.
var baselines = map[string]struct {
	run  func() (text string, data []byte, err error)
	file string
}{
	"census": {experiments.CensusJSON, "BENCH_census.json"},
}

// run is main with its environment made explicit, so CLI behavior — flag and
// experiment-name validation above all — is testable in-process. Exit codes:
// 0 on success, 2 on usage errors, 1 on runtime failures.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("psgl-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		tracePath = fs.String("trace", "", "write a JSONL trace of engine events to this file and print the observability report")
		pprofAddr = fs.String("pprof-addr", "", `serve net/http/pprof + expvar counters on this address (e.g. "localhost:6060")`)
	)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: psgl-bench [flags] <datasets|property1|fig3|fig5|fig6|table2|fig7|table3|table4|fig8|makespan|census|all>")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	name := fs.Arg(0)
	fn, err := experiments.ByName(name)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	var observer *psgl.Observer
	if *tracePath != "" {
		traceFile, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer traceFile.Close()
		observer = psgl.NewObserver(psgl.NewJSONLSink(traceFile))
	} else if *pprofAddr != "" {
		observer = psgl.NewObserver(nil)
	}
	if *pprofAddr != "" {
		addr, err := psgl.ServeDebug(*pprofAddr, observer)
		if err != nil {
			fmt.Fprintf(stderr, "pprof server: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "debug server on http://%s/debug/pprof/ (also /debug/vars, /debug/obs)\n", addr)
	}
	experiments.Observer = observer

	start := time.Now()
	if b, ok := baselines[name]; !ok {
		fmt.Fprint(stdout, fn())
	} else {
		// One run, both renderings: the printed table and the written
		// baseline are the same measurement.
		text, data, err := b.run()
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprint(stdout, text)
		if err := os.WriteFile(b.file, data, 0o644); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "baseline written to %s\n", b.file)
	}
	if observer != nil {
		observer.WriteReport(stderr)
	}
	fmt.Fprintf(stdout, "(experiment %s completed in %s)\n", name, time.Since(start).Round(time.Millisecond))
	return 0
}
