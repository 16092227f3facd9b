package bsp

// Acceptance test for the observability layer across a stop and a resume:
// the resumed run's trace records the resume, while the logical counters
// stay bit-for-bit identical to a clean run of the same program.

import (
	"reflect"
	"testing"

	"psgl/internal/obs"
)

func eventTypes(events []obs.Event) map[obs.EventType]int {
	counts := map[obs.EventType]int{}
	for _, e := range events {
		counts[e.Type]++
	}
	return counts
}

func TestObserverResumeTrace(t *testing.T) {
	// Stop a run after its third checkpoint, then resume it under a fresh
	// observer: the resumed trace opens with run_start preceded by a resume
	// record, and the logical counters match a clean end-to-end run.
	clean := func() *obs.Observer {
		o := obs.New(nil)
		prog, cfg := newEcho(60, 6, 3)
		cfg.Observer = o
		if _, err := Run[wint](cfg, prog); err != nil {
			t.Fatal(err)
		}
		return o
	}()

	prog, cfg := newEcho(60, 6, 3)
	store := stopAfterSave(t, cfg, prog, 3)

	ring := obs.NewRing(1024)
	resumedObs := obs.New(ring)
	prog2, cfg2 := newEcho(60, 6, 3)
	cfg2.ResumeFrom = store
	cfg2.Observer = resumedObs
	if _, err := Run[wint](cfg2, prog2); err != nil {
		t.Fatal(err)
	}

	events := ring.Events()
	counts := eventTypes(events)
	if counts[obs.EventResume] != 1 {
		t.Fatalf("trace has %d resume events, want 1", counts[obs.EventResume])
	}
	if !reflect.DeepEqual(resumedObs.Counters(), clean.Counters()) {
		t.Errorf("counters diverge:\nresumed: %v\nclean:   %v", resumedObs.Counters(), clean.Counters())
	}
	if rs, cs := resumedObs.Snapshot(), clean.Snapshot(); rs.MessagesTotal != cs.MessagesTotal || rs.Supersteps != cs.Supersteps {
		t.Errorf("logical totals diverge: resumed %d/%d, clean %d/%d",
			rs.Supersteps, rs.MessagesTotal, cs.Supersteps, cs.MessagesTotal)
	}
}
