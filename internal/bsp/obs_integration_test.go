package bsp

// Acceptance test for the observability layer under fault injection: the
// trace of a failing-and-recovering run must tell the full story (checkpoint
// saves, the recovery decision, the restore), while the logical counters
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

func TestObserverTraceOfFaultInjectedRun(t *testing.T) {
	runEcho := func(cfg func(*Config)) (*RunStats, *obs.Observer, *obs.Ring) {
		ring := obs.NewRing(4096)
		o := obs.New(ring)
		prog, c := newEcho(60, 5, 3)
		c.Observer = o
		if cfg != nil {
			cfg(&c)
		}
		stats, err := Run[wint](c, prog)
		if err != nil {
			t.Fatal(err)
		}
		return stats, o, ring
	}

	cleanStats, cleanObs, _ := runEcho(nil)

	// Three injected faults at step 1, each recovered by restoring the
	// barrier checkpoint; the 4th attempt goes through.
	faultyStats, faultyObs, ring := runEcho(func(c *Config) {
		c.Exchange = scheduled(t, nil, StepFault{Step: 1, Kind: StepFaultFail}, StepFault{Step: 1, Kind: StepFaultFail}, StepFault{Step: 1, Kind: StepFaultFail})
		c.CheckpointEvery = 1
		c.CheckpointStore = NewMemCheckpointStore()
		c.MaxRecoveries = 10
	})
	if faultyStats.Recoveries != 3 {
		t.Fatalf("Recoveries = %d, want 3", faultyStats.Recoveries)
	}

	events := ring.Events()
	if len(events) == 0 {
		t.Fatal("empty trace")
	}
	if events[0].Type != obs.EventRunStart {
		t.Errorf("first event = %v, want run_start", events[0].Type)
	}
	if last := events[len(events)-1]; last.Type != obs.EventRunEnd {
		t.Errorf("last event = %v, want run_end", last.Type)
	}
	counts := eventTypes(events)
	if counts[obs.EventCheckpointSave] == 0 {
		t.Error("trace has no checkpoint_save event")
	}
	if counts[obs.EventRecovery] != 3 {
		t.Errorf("trace has %d recovery events, want 3", counts[obs.EventRecovery])
	}
	if counts[obs.EventCheckpointRestore] != 3 {
		t.Errorf("trace has %d checkpoint_restore events, want 3", counts[obs.EventCheckpointRestore])
	}
	for _, e := range events {
		if e.Type == obs.EventRecovery && e.Err == "" {
			t.Error("recovery event carries no cause")
		}
	}

	// The logical view must not drift under failure: a recovered run reports
	// the same engine counters and message totals as a clean one.
	if !reflect.DeepEqual(faultyObs.Counters(), cleanObs.Counters()) {
		t.Errorf("counters diverge:\nfaulty: %v\nclean:  %v", faultyObs.Counters(), cleanObs.Counters())
	}
	fs, cs := faultyObs.Snapshot(), cleanObs.Snapshot()
	if fs.MessagesTotal != cs.MessagesTotal {
		t.Errorf("MessagesTotal = %d, clean run has %d", fs.MessagesTotal, cs.MessagesTotal)
	}
	if fs.Supersteps != cs.Supersteps {
		t.Errorf("Supersteps = %d, clean run has %d", fs.Supersteps, cs.Supersteps)
	}
	if faultyStats.MessagesTotal != cleanStats.MessagesTotal {
		t.Errorf("stats MessagesTotal = %d, clean run has %d", faultyStats.MessagesTotal, cleanStats.MessagesTotal)
	}
	if fs.Restores != 3 || fs.Recoveries != 3 {
		t.Errorf("physical counters: restores=%d recoveries=%d, want 3/3", fs.Restores, fs.Recoveries)
	}
}

func TestObserverResumeTrace(t *testing.T) {
	// Fail a run after its first checkpoint, then resume it under a fresh
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

	store := NewMemCheckpointStore()
	prog, cfg := newEcho(60, 6, 3)
	cfg.Exchange = scheduled(t, nil, StepFault{Step: 3, Kind: StepFaultFail})
	cfg.CheckpointEvery = 1
	cfg.CheckpointStore = store
	if _, err := Run[wint](cfg, prog); err == nil {
		t.Fatal("fault-injected run succeeded")
	}

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
