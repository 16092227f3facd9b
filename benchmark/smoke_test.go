package main

import (
	"bytes"
	"encoding/json"
	"regexp"
	"testing"
)

// toyWorkloads are the four workloads on graphs small enough for a test.
func toyWorkloads() []workloadDef {
	defs := workloads()
	toy := map[string]graphSpec{
		"list-compute": {1500, 6000, 2.2},
		"list-wire":    {1000, 4000, 1.8},
		"serve-short":  {2000, 8000, 1.8},
		"serve-update": {2000, 8000, 1.8},
	}
	for i := range defs {
		defs[i].Graph = toy[defs[i].Name]
	}
	return defs
}

// BENCHMARK.json and the program must declare the same workloads, metrics,
// units, directions and bounds.
func TestManifestMatchesDeclarations(t *testing.T) {
	m, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Paths) != 1 || m.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", m.Paths)
	}
	defs := workloads()
	if len(m.Workloads) != len(defs) {
		t.Fatalf("%d workloads declared, %d in the program", len(m.Workloads), len(defs))
	}
	for i, w := range m.Workloads {
		if w.Name != defs[i].Name || w.Why != defs[i].Why {
			t.Errorf("workload %d: manifest %q, program %q", i, w.Name, defs[i].Name)
		}
	}
	same := func(kind string, got []manifestMetric, want []decl) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics declared, %d in the program", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better || g.Bound != w.Bound {
				t.Errorf("%s[%d]: manifest %+v, program %+v", kind, i, g, w)
			}
		}
	}
	same("end_to_end", m.EndToEnd, endToEnd)
	same("per_layer", m.PerLayer, perLayer)
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", len(perLayer))
	}
}

// Every workload, at toy scale, passes its correctness checks and emits every
// declared metric exactly once, in both passes, in the driver's format.
func TestAllWorkloadsEmitEveryDeclaredMetric(t *testing.T) {
	nameOK := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	gd := &golden{counts: map[string]int64{}}
	for _, def := range toyWorkloads() {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{seed: 11, seconds: 0.4, trace: trace, setupReps: 2, benchtime: "1x",
				spansPath: t.TempDir() + "/spans.json"}
			var out bytes.Buffer
			rep, err := runWorkload(def, cfg, gd, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", def.Name, trace, err)
			}
			if !rep.correct() {
				t.Errorf("%s trace=%v: %d of %d checks failed: %v", def.Name, trace, rep.Failed, rep.Attempted, rep.Failures)
			}
			var line struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(rep.resultLine()), &line); err != nil {
				t.Fatalf("%s trace=%v: result line: %v", def.Name, trace, err)
			}
			decls := rep.decls()
			if len(line.Metrics) != len(decls) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d declared", def.Name, trace, len(line.Metrics), len(decls))
			}
			seen := map[string]bool{}
			for _, d := range decls {
				got, ok := line.Metrics[d.Name]
				switch {
				case seen[d.Name]:
					t.Errorf("metric %s declared twice", d.Name)
				case !nameOK.MatchString(d.Name):
					t.Errorf("metric name %q is not made of letters, digits, '_', '.', '-'", d.Name)
				case !ok || got.Value == nil || got.Unit != d.Unit:
					t.Errorf("%s trace=%v: metric %s missing or with the wrong unit", def.Name, trace, d.Name)
				case !trace && *got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", def.Name, d.Name, *got.Value)
				}
				seen[d.Name] = true
			}
			if trace {
				if v, _ := rep.Metrics.get("trace.coverage"); v.V <= 0 || v.V > 1 {
					t.Errorf("%s: trace.coverage = %v", def.Name, v.V)
				}
			}
		}
	}
}
