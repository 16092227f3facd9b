package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"psgl/internal/experiments"
)

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestRejectsUnknownExperiment covers the retired hotpath, serve and update
// writers too (benchmark/ measures those layers) and the retired chaos
// harness: their names are usage errors like any other.
func TestRejectsUnknownExperiment(t *testing.T) {
	for _, name := range []string{"fig99", "hotpath", "serve", "update", "chaos"} {
		code, _, stderr := runCLI(t, name)
		if code != 2 {
			t.Fatalf("%s: exit %d, want 2", name, code)
		}
		if !strings.Contains(stderr, fmt.Sprintf("unknown experiment %q", name)) {
			t.Fatalf("%s: stderr = %q", name, stderr)
		}
	}
}

func TestRejectsMissingExperiment(t *testing.T) {
	code, _, stderr := runCLI(t)
	if code == 0 {
		t.Fatal("missing experiment accepted")
	}
	if !strings.Contains(stderr, "usage: psgl-bench") {
		t.Fatalf("stderr = %q", stderr)
	}
}

func TestRejectsExtraArguments(t *testing.T) {
	code, _, stderr := runCLI(t, "fig3", "fig5")
	if code == 0 {
		t.Fatal("extra arguments accepted")
	}
	if !strings.Contains(stderr, "usage: psgl-bench") {
		t.Fatalf("stderr = %q", stderr)
	}
}

func TestRejectsUnknownFlag(t *testing.T) {
	code, _, stderr := runCLI(t, "-workers", "-3", "fig3")
	if code == 0 {
		t.Fatal("unknown flag accepted")
	}
	if !strings.Contains(stderr, "flag provided but not defined") {
		t.Fatalf("stderr = %q", stderr)
	}
}

// TestBaselineExperimentRunsOnce: an experiment that also writes a
// BENCH_*.json baseline executes once per invocation, and the printed table
// and the written file are that one run — every wall time in the file is the
// one printed (two runs never agree to the tenth of a millisecond on all rows).
func TestBaselineExperimentRunsOnce(t *testing.T) {
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(dir)
	real, calls := baselines["census"], 0
	baselines["census"] = struct {
		run  func() (string, []byte, error)
		file string
	}{func() (string, []byte, error) { calls++; return real.run() }, real.file}
	defer func() { baselines["census"] = real }()

	code, stdout, stderr := runCLI(t, "census")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if calls != 1 {
		t.Fatalf("census executed %d times in one invocation", calls)
	}
	if n := strings.Count(stdout, "Motif census"); n != 1 {
		t.Fatalf("report printed %d times:\n%s", n, stdout)
	}
	data, err := os.ReadFile("BENCH_census.json")
	if err != nil {
		t.Fatal(err)
	}
	var rep experiments.CensusReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) == 0 {
		t.Fatal("baseline holds no runs")
	}
	for _, run := range rep.Runs {
		if cell := fmt.Sprintf("%.1fms", run.WallMS); !strings.Contains(stdout, cell) {
			t.Errorf("baseline row %s k=%d took %s, which the printed table does not show:\n%s", run.Graph, run.K, cell, stdout)
		}
	}
}
