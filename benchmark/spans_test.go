package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildCoverOnce(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Op: 1, Name: "op", StartNS: 0, EndNS: 100},
		{ID: 1, Parent: 0, Op: 1, Name: "run", StartNS: 10, EndNS: 90},
		// Two overlapping children and one reaching past the parent's end.
		{ID: 2, Parent: 1, Op: 1, Name: "step", StartNS: 20, EndNS: 50},
		{ID: 3, Parent: 1, Op: 1, Name: "step", StartNS: 40, EndNS: 60},
		{ID: 4, Parent: 1, Op: 1, Name: "late", StartNS: 80, EndNS: 120},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{"op": 20, "run": 30, "step": 50, "late": 40}
	for name, d := range want {
		if self[name] != d {
			t.Errorf("self[%s] = %d, want %d", name, self[name], d)
		}
	}
	// Leaves cover 30+20+40 = 90 of the 100 ns of root wall.
	if got := coverage(spans); got < 0.899 || got > 0.901 {
		t.Errorf("coverage = %v, want 0.9", got)
	}
}

func TestSyntheticSpansAreClippedToParent(t *testing.T) {
	tr := newTracer()
	root := tr.begin(-1, tr.newOp(), "root")
	tr.spans[root].StartNS, tr.spans[root].EndNS = 0, 100
	ids := tr.addSynthetic(root, []namedDuration{{"a", 60}, {"b", 60}, {"c", 10}})
	if ids[0] < 0 || ids[1] < 0 || ids[2] != -1 {
		t.Fatalf("ids = %v, want two spans and one dropped", ids)
	}
	spans := tr.snapshot()
	if b := spans[ids[1]]; b.StartNS != 60 || b.EndNS != 100 || !b.Synthetic || b.Parent != root {
		t.Fatalf("second synthetic span = %+v", b)
	}
	if self := selfTimes(spans)["root"]; self != 0 {
		t.Fatalf("root self time = %v, want 0", self)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin(-1, tr.newOp(), "x")
	tr.end(id)
	if tr.addSynthetic(id, []namedDuration{{"y", 1}}) != nil || tr.snapshot() != nil {
		t.Fatal("nil tracer must stay empty")
	}
}
