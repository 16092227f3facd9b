package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"psgl"
	"psgl/internal/obs"
)

// runCLI invokes run() in-process and returns (exit code, stdout, stderr).
func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestFlagValidation(t *testing.T) {
	dir := t.TempDir()
	censusStore := filepath.Join(dir, "census-ck")
	type flagCase struct {
		name    string
		args    []string
		code    int
		wantMsg string
	}
	cases := []flagCase{
		{"negative workers", []string{"-gen", "er:50:100", "-workers", "-3"}, 2, "-workers must be >= 1"},
		{"zero workers", []string{"-gen", "er:50:100", "-workers", "0"}, 2, "-workers must be >= 1"},
		// A context deadline (-timeout) is the one run bound: there is no
		// superstep cap and no per-superstep deadline to set, in any mode.
		{"zero supersteps", []string{"-gen", "er:50:100", "-max-supersteps", "0"}, 2, "flag provided but not defined: -max-supersteps"},
		{"negative supersteps", []string{"-gen", "er:50:100", "-max-supersteps", "-1"}, 2, "flag provided but not defined: -max-supersteps"},
		{"unknown strategy", []string{"-gen", "er:50:100", "-strategy", "alphabetical"}, 2, `unknown strategy "alphabetical"`},
		{"bad alpha", []string{"-gen", "er:50:100", "-alpha", "1.5"}, 2, "-alpha must be in (0, 1]"},
		// A failed send ends the run: there is no retry and no in-run
		// recovery to configure; a stopped run is resumed with -resume.
		{"zero retries", []string{"-gen", "er:50:100", "-exchange-retries", "2"}, 2, "flag provided but not defined: -exchange-retries"},
		{"resume without dir", []string{"-gen", "er:50:100", "-resume"}, 2, "-resume requires -checkpoint-dir"},
		{"recoveries without dir", []string{"-gen", "er:50:100", "-max-recoveries", "1"}, 2, "flag provided but not defined: -max-recoveries"},
		{"no graph source", []string{"-pattern", "pg1"}, 2, "one of -graph or -gen is required"},
		{"both graph sources", []string{"-graph", "x.txt", "-gen", "er:50:100"}, 2, "either -graph or -gen, not both"},
		{"unknown pattern", []string{"-gen", "er:50:100", "-pattern", "pg99"}, 2, "pg99"},
		{"trailing args", []string{"-gen", "er:50:100", "extra"}, 2, "unexpected arguments"},
		{"unknown flag", []string{"-no-such-flag"}, 2, "flag provided but not defined"},
		// The product builds no edge index, so there is none to disable.
		{"no edge index", []string{"-gen", "er:50:100", "-no-edge-index"}, 2, "flag provided but not defined: -no-edge-index"},
		{"negative timeout", []string{"-gen", "er:50:100", "-timeout", "-1s"}, 2, "-timeout must be >= 0"},
		{"negative step timeout", []string{"-gen", "er:50:100", "-step-timeout", "-1s"}, 2, "flag provided but not defined: -step-timeout"},
		{"negative intermediate budget", []string{"-gen", "er:50:100", "-max-intermediate", "-5"}, 2, "-max-intermediate must be >= 0"},
		{"zero checkpoint interval", []string{"-gen", "er:50:100", "-checkpoint-dir", dir, "-checkpoint-every", "0"}, 2, "-checkpoint-every must be >= 1"},
		{"negative checkpoint interval", []string{"-gen", "er:50:100", "-checkpoint-dir", dir, "-checkpoint-every", "-3"}, 2, "-checkpoint-every must be >= 1"},
		{"negative initial vertex", []string{"-gen", "er:50:100", "-initial", "-4"}, 2, "-initial must be a pattern vertex or -1"},
		{"initial vertex past the pattern", []string{"-gen", "er:50:100", "-pattern", "triangle", "-initial", "7"}, 2, "-initial 7 is out of range [0,3)"},
		{"async with step timeout", []string{"-gen", "er:50:100", "-async", "-step-timeout", "5s"}, 2, "flag provided but not defined: -step-timeout"},
		// Refused before the graph is loaded: the file does not exist.
		{"async with step timeout before loading", []string{"-graph", filepath.Join(dir, "missing.txt"), "-async", "-step-timeout", "5s"}, 2, "flag provided but not defined: -step-timeout"},
		{"census with -max-supersteps", []string{"-gen", "er:50:100", "-pattern", "census(3)", "-max-supersteps", "5"}, 2, "flag provided but not defined: -max-supersteps"},
		{"census with -step-timeout", []string{"-gen", "er:50:100", "-pattern", "census(3)", "-step-timeout", "1s"}, 2, "flag provided but not defined: -step-timeout"},
		{"checkpoint interval without dir", []string{"-gen", "er:50:100", "-checkpoint-every", "2"}, 2, "-checkpoint-every requires -checkpoint-dir"},
		{"default checkpoint interval without dir", []string{"-gen", "er:50:100", "-checkpoint-every", "1"}, 2, "-checkpoint-every requires -checkpoint-dir"},
		// The census reads no listing-engine flag: each is refused, and
		// -checkpoint-dir before its store is created.
		{"census with checkpointing", []string{"-gen", "er:200:800", "-pattern", "census(3)", "-checkpoint-dir", censusStore,
			"-resume", "-tcp", "-strategy", "random"}, 2, "-checkpoint-dir applies to pattern listing, not census queries"},
		{"census with -exchange-retries", []string{"-gen", "er:50:100", "-pattern", "census(3)", "-exchange-retries", "2"}, 2, "flag provided but not defined: -exchange-retries"},
		{"census with -max-recoveries", []string{"-gen", "er:50:100", "-pattern", "census(3)", "-max-recoveries", "2"}, 2, "flag provided but not defined: -max-recoveries"},
	}
	for _, f := range [][]string{
		{"-strategy", "random"}, {"-alpha", "0.5"}, {"-initial", "0"}, {"-max-intermediate", "10"},
		{"-tcp"}, {"-async"}, {"-compress"},
		{"-checkpoint-dir", censusStore}, {"-checkpoint-every", "2"}, {"-resume"},
	} {
		cases = append(cases, flagCase{"census with " + f[0], append([]string{"-gen", "er:50:100", "-pattern", "census(3)"}, f...),
			2, f[0] + " applies to pattern listing, not census queries"})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := runCLI(t, tc.args...)
			if code != tc.code {
				t.Fatalf("args %v: exit %d, want %d (stderr %q)", tc.args, code, tc.code, stderr)
			}
			if !strings.Contains(stderr, tc.wantMsg) {
				t.Fatalf("args %v: stderr %q, want it to contain %q", tc.args, stderr, tc.wantMsg)
			}
			if n := strings.Count(stderr, "psgl: "); n > 1 {
				t.Fatalf("args %v: stderr %q carries the psgl: prefix %d times", tc.args, stderr, n)
			}
			// No rejected run builds anything, a checkpoint store included.
			if _, err := os.Stat(censusStore); !os.IsNotExist(err) {
				t.Fatalf("args %v: %s exists after the rejected run (stat err %v)", tc.args, censusStore, err)
			}
		})
	}
}

func TestRunCountsTriangles(t *testing.T) {
	code, stdout, stderr := runCLI(t,
		"-gen", "er:200:800", "-pattern", "pg1", "-workers", "2", "-verify")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "verified against the single-thread oracle") {
		t.Fatalf("oracle verification missing from stderr:\n%s", stderr)
	}
	if strings.TrimSpace(stdout) == "" {
		t.Fatalf("no count on stdout")
	}
}

func TestPatternDSLOnCommandLine(t *testing.T) {
	// The -pattern flag accepts the full DSL; spellings of the triangle must
	// agree with each other (each run is oracle-verified).
	var counts []string
	for _, spec := range []string{"pg1", "cycle(3)", "edges(0-1,1-2,2-0)"} {
		code, stdout, stderr := runCLI(t,
			"-gen", "er:200:800", "-pattern", spec, "-workers", "2", "-verify")
		if code != 0 {
			t.Fatalf("pattern %q: exit %d, stderr:\n%s", spec, code, stderr)
		}
		counts = append(counts, strings.TrimSpace(stdout))
	}
	if counts[0] != counts[1] || counts[0] != counts[2] {
		t.Fatalf("DSL spellings disagree: %v", counts)
	}
}

func TestRunWritesTraceAndReport(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "out.jsonl")
	code, _, stderr := runCLI(t,
		"-gen", "er:200:800", "-pattern", "pg1", "-workers", "2", "-trace", tracePath)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "== observability report ==") {
		t.Fatalf("report missing from stderr:\n%s", stderr)
	}
	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := obs.DecodeJSONL(f)
	if err != nil {
		t.Fatalf("trace not valid JSONL: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("empty trace")
	}
	if events[0].Type != obs.EventRunStart {
		t.Fatalf("first event = %v, want run_start", events[0].Type)
	}
	if last := events[len(events)-1]; last.Type != obs.EventRunEnd {
		t.Fatalf("last event = %v, want run_end", last.Type)
	}
}

func TestCensusBatchMode(t *testing.T) {
	code, stdout, stderr := runCLI(t,
		"-gen", "chunglu:300:900:2.0", "-pattern", "census(3)", "-workers", "2", "-verify", "-stats")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	var res struct {
		K         int   `json:"k"`
		Subgraphs int64 `json:"subgraphs"`
		Classes   []struct {
			Motif string `json:"motif"`
			Count int64  `json:"count"`
		} `json:"classes"`
	}
	if err := json.Unmarshal([]byte(stdout), &res); err != nil {
		t.Fatalf("census stdout is not JSON: %v\n%s", err, stdout)
	}
	if res.K != 3 || res.Subgraphs == 0 || len(res.Classes) == 0 {
		t.Fatalf("implausible census output: %+v", res)
	}
	if !strings.Contains(stderr, "verified against the single-thread census oracle") {
		t.Fatalf("census oracle verification missing from stderr:\n%s", stderr)
	}
	if !strings.Contains(stderr, "canon cache:") {
		t.Fatalf("-stats census summary missing from stderr:\n%s", stderr)
	}
}

// TestCensusGoldenHistogram pins the committed golden histogram the CI census
// smoke diffs against: same generator, seed, and k as the workflow step.
func TestCensusGoldenHistogram(t *testing.T) {
	code, stdout, stderr := runCLI(t,
		"-gen", "chunglu:500:1500:2.0", "-seed", "1", "-pattern", "census(3)", "-workers", "2")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	type histogram struct {
		K         int   `json:"k"`
		Subgraphs int64 `json:"subgraphs"`
		Classes   []struct {
			Code  uint32 `json:"code"`
			Motif string `json:"motif"`
			Count int64  `json:"count"`
		} `json:"classes"`
	}
	var got, want histogram
	if err := json.Unmarshal([]byte(stdout), &got); err != nil {
		t.Fatalf("census stdout is not JSON: %v", err)
	}
	golden, err := os.ReadFile(filepath.Join("..", "..", "testdata", "census_k3_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(golden, &want); err != nil {
		t.Fatalf("golden file is not JSON: %v", err)
	}
	if got.K != want.K || got.Subgraphs != want.Subgraphs || len(got.Classes) != len(want.Classes) {
		t.Fatalf("census drifted from the committed golden:\ngot  %+v\nwant %+v", got, want)
	}
	for i := range want.Classes {
		if got.Classes[i] != want.Classes[i] {
			t.Fatalf("class %d drifted from the committed golden: got %+v, want %+v",
				i, got.Classes[i], want.Classes[i])
		}
	}
}

func TestCensusBatchModeValidation(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantMsg string
	}{
		{"k too large", []string{"-gen", "er:50:100", "-pattern", "census(6)"}, "out of supported range"},
		{"k too small", []string{"-gen", "er:50:100", "-pattern", "census(1)"}, "out of supported range"},
		{"malformed k", []string{"-gen", "er:50:100", "-pattern", "census(x)"}, "census wants one integer argument"},
		{"explain rejected", []string{"-gen", "er:50:100", "-pattern", "census(3)", "-explain"}, "-explain applies to pattern listing"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := runCLI(t, tc.args...)
			if code != 2 {
				t.Fatalf("args %v: exit %d, want usage error 2; stderr:\n%s", tc.args, code, stderr)
			}
			if !strings.Contains(stderr, tc.wantMsg) {
				t.Fatalf("args %v: stderr %q, want it to contain %q", tc.args, stderr, tc.wantMsg)
			}
		})
	}
}

func TestExplainExitsCleanly(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-gen", "er:100:300", "-pattern", "pg2", "-explain")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "initial-vertex cost estimates") {
		t.Fatalf("explain output missing:\n%s", stdout)
	}
}

// TestAsyncFlagMatchesStrict: -async produces the same count as the default
// barriered run (verified against the oracle too), over both the in-process
// and loopback-TCP transports.
func TestAsyncFlagMatchesStrict(t *testing.T) {
	code, strictOut, stderr := runCLI(t,
		"-gen", "er:150:600", "-pattern", "square", "-workers", "3")
	if code != 0 {
		t.Fatalf("strict run: exit %d, stderr:\n%s", code, stderr)
	}
	for _, extra := range [][]string{{"-async"}, {"-async", "-tcp"}} {
		args := append([]string{"-gen", "er:150:600", "-pattern", "square", "-workers", "3", "-verify"}, extra...)
		code, asyncOut, stderr := runCLI(t, args...)
		if code != 0 {
			t.Fatalf("%v: exit %d, stderr:\n%s", extra, code, stderr)
		}
		if asyncOut != strictOut {
			t.Fatalf("%v: count %q, strict %q", extra, asyncOut, strictOut)
		}
	}
}

// stopAfterFirstSave is a checkpoint store that stops the run right after its
// first save.
type stopAfterFirstSave struct {
	psgl.CheckpointStore
	stop context.CancelFunc
}

func (s stopAfterFirstSave) Save(step int, data []byte) error {
	err := s.CheckpointStore.Save(step, data)
	s.stop()
	return err
}

// TestResumeRefusesAnotherRunsCheckpoint: -resume reads a checkpoint directory
// another run may have left. A diamond run's checkpoint resumed with another
// pattern, graph or seed exits 1 naming the corrupt checkpoint — no panic, no
// count — while the same run resumes to the clean count.
func TestResumeRefusesAnotherRunsCheckpoint(t *testing.T) {
	dir := t.TempDir()
	spec := "chunglu:2000:10000:2.0"
	g, err := loadGraph("", spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	store, err := psgl.NewFileCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := psgl.NewOptions()
	opts.Workers, opts.Seed = 2, 1
	opts.CheckpointEvery, opts.CheckpointStore = 1, stopAfterFirstSave{store, cancel}
	if _, err := psgl.ListContext(ctx, g, psgl.Diamond(), opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("stopped run: err = %v, want context.Canceled", err)
	}

	for _, args := range [][]string{
		{"-gen", spec, "-pattern", "pg1"},
		{"-gen", spec, "-pattern", "pg5"},
		{"-gen", "er:500:2000", "-pattern", "pg3"},
		{"-gen", spec, "-pattern", "pg3", "-seed", "7"},
	} {
		args = append(args, "-workers", "2", "-checkpoint-dir", dir, "-resume")
		code, stdout, stderr := runCLI(t, args...)
		if code != 1 || stdout != "" || !strings.Contains(stderr, "corrupt checkpoint") {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 1, no count, a corrupt checkpoint", args, code, stdout, stderr)
		}
	}
	_, clean, _ := runCLI(t, "-gen", spec, "-pattern", "pg3", "-workers", "2")
	code, resumed, stderr := runCLI(t, "-gen", spec, "-pattern", "pg3", "-workers", "2", "-checkpoint-dir", dir, "-resume")
	if code != 0 || resumed != clean {
		t.Fatalf("resuming the same run: exit %d, count %q, clean %q (stderr %q)", code, resumed, clean, stderr)
	}
}
