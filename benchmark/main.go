// Command benchmark is the repo's benchmark: four workloads, end-to-end
// metrics from an untraced pass, per-layer metrics and a span file from a
// traced pass, every output checked for correctness. BENCHMARK.json at the
// root of the repo declares its command, workloads, metrics and bounds;
// README.md here says why each workload and metric is there.
//
//	bash benchmark/run.sh --workload list-wire --seed 3 --seconds 15 --trace 0
//	bash benchmark/run.sh compare A.jsonl B.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// env names the machine and build a report was taken on.
type env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"`
}

// readEnv fills the header. Outside a git work tree (the driver's checkout
// is a plain directory) the commit reads "unknown".
func readEnv() env {
	e := env{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		Commit:     "unknown",
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
		status, err := exec.Command("git", "status", "--porcelain").Output()
		e.Dirty = err == nil && len(strings.TrimSpace(string(status))) > 0
	}
	return e
}

func (e env) String() string {
	dirty := ""
	if e.Dirty {
		dirty = "+dirty"
	}
	return fmt.Sprintf("env: nproc=%d GOMAXPROCS=%d %s %s/%s commit=%s%s",
		e.NProc, e.GOMAXPROCS, e.GoVersion, e.OS, e.Arch, e.Commit, dirty)
}

// row is one metric of one run in the machine-readable report.
type row struct {
	Name      string  `json:"name"`
	Unit      string  `json:"unit"`
	Direction string  `json:"direction"`
	Workload  string  `json:"workload"`
	Value     float64 `json:"value"`
	// N, Q1 and Q3 describe the samples behind a value that is their median.
	N  int     `json:"n,omitempty"`
	Q1 float64 `json:"q1,omitempty"`
	Q3 float64 `json:"q3,omitempty"`
}

// runRecord is one line of a -json file: one (workload, pass) with its
// header. A file of several lines is a run set, the input of compare.
type runRecord struct {
	Env       env            `json:"env"`
	Workload  string         `json:"workload"`
	Seed      int64          `json:"seed"`
	Trace     bool           `json:"trace"`
	Seconds   float64        `json:"seconds"`
	Samples   map[string]int `json:"samples"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	Rows      []row          `json:"rows"`
}

func (r *report) record(e env) runRecord {
	rec := runRecord{Env: e, Workload: r.Workload, Seed: r.Seed, Trace: r.Trace, Seconds: r.Seconds,
		Samples: r.Samples, Attempted: r.Attempted, Failed: r.Failed}
	for _, d := range r.decls() {
		v, _ := r.Metrics.get(d.Name)
		out := row{Name: d.Name, Unit: d.Unit, Direction: d.Better, Workload: r.Workload, Value: v.V}
		if v.S != nil {
			out.N, out.Q1, out.Q3 = v.S.N, v.S.Q1, v.S.Q3
		}
		rec.Rows = append(rec.Rows, out)
	}
	return rec
}

func appendJSONL(path string, rec runRecord) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// resultLine is the last line of standard output when one workload is run:
// the form the driver reads.
func (r *report) resultLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]mv{}}
	for _, d := range r.decls() {
		v, _ := r.Metrics.get(d.Name)
		out.Metrics[d.Name] = mv{Value: v.V, Unit: d.Unit}
	}
	data, err := json.Marshal(out)
	if err != nil {
		panic(err) // finite floats and strings only: cannot fail
	}
	return string(data)
}

func (r *report) print(w io.Writer) {
	pass := "untraced"
	if r.Trace {
		pass = "traced"
	}
	fmt.Fprintf(w, "%s: %s pass, seed %d, %.2f s measured, samples op=%d op2=%d, oracle %.2f s\n",
		r.Workload, pass, r.Seed, r.Seconds, r.Samples["op"], r.Samples["op2"], r.OracleS)
	if !r.Trace {
		fmt.Fprintf(w, "%s: op_tail_ms is p%.0f with %d samples beyond it, op2_tail_ms p%.0f with %d (a percentile wants 10)\n",
			r.Workload, r.OpTail*100, samplesBeyond(r.Samples["op"], r.OpTail), r.Op2Tail*100, samplesBeyond(r.Samples["op2"], r.Op2Tail))
	}
	r.Metrics.print(w, r.Workload, r.decls())
	rate := 0.0
	if r.Attempted > 0 {
		rate = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "%-14s %-42s %14.6g %-6s ↓  failed=%d attempted=%d\n", r.Workload, "error_rate", rate, "ratio", r.Failed, r.Attempted)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "%s: FAILED %s\n", r.Workload, f)
	}
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout))
}

func runMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload to run: list-compute, list-wire, serve-short, serve-update, or all")
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	seconds := fs.Float64("seconds", 20, "length of the timed window per workload")
	trace := fs.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics and a span file")
	jsonPath := fs.String("json", "", "append this run's rows to a JSON-lines file")
	spansDir := fs.String("spans", ".bench_build", "directory the traced pass writes spans-<workload>.json to")
	updateGolden := fs.Bool("update-golden", false, "rewrite "+goldenPath+" with the oracle counts of this run's inputs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive, -trace 0 or 1, and no positional arguments")
		return 2
	}
	defs := workloads()
	if *workload != "all" {
		def, ok := findWorkload(defs, *workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
			return 2
		}
		defs = []workloadDef{def}
	}
	gd, err := loadGolden()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}

	e := readEnv()
	fmt.Fprintln(out, e)
	fmt.Fprintf(out, "run: seed=%d seconds=%g trace=%d started=%s\n", *seed, *seconds, *trace, time.Now().UTC().Format(time.RFC3339))
	failed := false
	var last *report
	for _, def := range defs {
		cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, setupReps: 5, benchtime: "150ms",
			spansPath: filepath.Join(*spansDir, "spans-"+def.Name+".json")}
		rep, err := runWorkload(def, cfg, gd, out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		rep.print(out)
		if *jsonPath != "" {
			if err := appendJSONL(*jsonPath, rep.record(e)); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
		}
		failed = failed || !rep.correct()
		last = rep
	}
	if *updateGolden {
		if err := gd.save(); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	if len(defs) == 1 {
		fmt.Fprintln(out, last.resultLine())
	}
	if failed {
		return 1
	}
	return 0
}
