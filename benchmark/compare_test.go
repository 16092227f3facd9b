package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudgeVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, x := range steady {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 70, 130, 100, 90, 110, 100}
	for _, tc := range []struct {
		name   string
		a, b   []float64
		better string
		bound  float64
		want   string
	}{
		{"same", steady, steady, "lower", 0.05, verdictOK},
		{"slower within bound", steady, scale(1.04), "lower", 0.05, verdictOK},
		{"slower beyond bound", steady, scale(1.08), "lower", 0.05, verdictRegressed},
		{"faster", steady, scale(0.5), "lower", 0.05, verdictOK},
		{"throughput down", steady, scale(0.9), "higher", 0.05, verdictRegressed},
		{"throughput up", steady, scale(1.5), "higher", 0.05, verdictOK},
		{"noise wider than bound", steady, noisy, "lower", 0.10, verdictUnresolved},
	} {
		if _, _, got := judge(tc.a, tc.b, tc.better, tc.bound); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareExitsNonZeroOnRegression(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, scale float64) string {
		path := filepath.Join(dir, name)
		for seed := int64(1); seed <= 4; seed++ {
			ms := newMetricSet()
			ms.set("op_p50_ms", 100*scale+float64(seed)/10)
			rep := &report{Workload: "list-compute", Seed: seed, Metrics: ms, Attempted: 1}
			rec := rep.record(env{})
			rec.Rows = append(rec.Rows, row{Name: "core.results", Workload: "list-compute", Value: 42 * scale})
			if err := appendJSONL(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a, same, slow := write("a.jsonl", 1), write("same.jsonl", 1), write("slow.jsonl", 1.5)
	manifest := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(manifest, []byte(`{"end_to_end":[{"name":"op_p50_ms","unit":"ms","better":"lower","bound":0.1}],
		"per_layer":[{"name":"core.results","unit":"count","better":"higher"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := compareMain([]string{"-manifest", manifest, a, same}, &out); code != 0 {
		t.Fatalf("identical sets: exit %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "exact") {
		t.Fatalf("equal counts not reported exact:\n%s", out.String())
	}
	out.Reset()
	if code := compareMain([]string{"-manifest", manifest, a, slow}, &out); code != 1 {
		t.Fatalf("regressed set: exit %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), verdictRegressed) || !strings.Contains(out.String(), "differs") {
		t.Fatalf("missing verdicts:\n%s", out.String())
	}
}
