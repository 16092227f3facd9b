package experiments

import (
	"strings"
	"testing"
)

// The heavyweight experiments are exercised by bench_test.go at the module
// root; here we cover the report plumbing and the cheap experiments so a
// plain `go test ./...` still validates this package.

func TestByName(t *testing.T) {
	for _, name := range []string{"datasets", "property1", "fig3", "fig5", "fig6", "table2", "fig7", "table3", "table4", "fig8", "makespan", "census", "all"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	// The hot-path, serving and update writers are retired (benchmark/
	// measures those layers), and so is the chaos harness.
	for _, name := range []string{"fig99", "hotpath", "serve", "update", "chaos"} {
		if _, err := ByName(name); err == nil {
			t.Errorf("unknown experiment %q accepted", name)
		}
	}
}

func TestDatasetsReport(t *testing.T) {
	out := Datasets()
	for _, want := range []string{"Table 1", "wikitalk", "twitter", "randgraph", "paper |V|"} {
		if !strings.Contains(out, want) {
			t.Errorf("datasets report missing %q:\n%s", want, out)
		}
	}
}

func TestProperty1Report(t *testing.T) {
	out := Property1()
	if !strings.Contains(out, "nb") || !strings.Contains(out, "ns") {
		t.Fatalf("property1 report incomplete:\n%s", out)
	}
	// The report must carry fitted gammas, not fit failures.
	if strings.Contains(out, "fit-failed") {
		t.Errorf("property1 contains a failed fit:\n%s", out)
	}
}

func TestFigure8Report(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	out := Figure8()
	if !strings.Contains(out, "workers") || !strings.Contains(out, "80") {
		t.Fatalf("figure8 report incomplete:\n%s", out)
	}
	// All rows must report the same instance count.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var counts []string
	for _, line := range lines[2:] {
		fields := strings.Fields(line)
		if len(fields) == 5 {
			counts = append(counts, fields[4])
		}
	}
	if len(counts) < 5 {
		t.Fatalf("too few data rows:\n%s", out)
	}
	for _, c := range counts {
		if c != counts[0] {
			t.Fatalf("worker sweep changed the instance count:\n%s", out)
		}
	}
}

func TestMakespanReport(t *testing.T) {
	out := Makespan()
	for _, want := range []string{"OPT (brute force)", "α=0.5", "lower bound", "random"} {
		if !strings.Contains(out, want) {
			t.Errorf("makespan report missing %q:\n%s", want, out)
		}
	}
}

func TestReportFormatting(t *testing.T) {
	r := newReport("title")
	r.row("a", "b")
	r.rowf("%d\t%d", 1, 2)
	r.note("note %d", 3)
	out := r.String()
	for _, want := range []string{"== title ==", "a", "note 3"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
