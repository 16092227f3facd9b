package core

import (
	"testing"

	"psgl/internal/bsp"
)

// TestEngineCounterTable keeps the counter table from drifting: every counter
// the engine registers has its own name and slot, and buildResult reads each
// of them — by that name — into a Stats field of its own. (That a counter
// leaves no key until it is non-zero, and resumes exactly from a snapshot
// written before its first use, is bsp's TestCounterSlots.)
func TestEngineCounterTable(t *testing.T) {
	if len(engineCounters) != 18 {
		t.Errorf("%d counters registered, want 18 (15 the engine feeds, 3 the compressed inbox)", len(engineCounters))
	}
	names, ids, fields := map[string]bool{}, map[bsp.Counter]bool{}, map[*int64]bool{}
	rs := &bsp.RunStats{Counters: map[string]int64{}}
	for i, c := range engineCounters {
		if names[c.name] || ids[c.id] {
			t.Errorf("counter %q (slot %d) registered twice", c.name, c.id)
		}
		if c.id != bsp.CounterID(c.name) {
			t.Errorf("counter %q holds slot %d, the table says %d", c.name, c.id, bsp.CounterID(c.name))
		}
		names[c.name], ids[c.id] = true, true
		rs.Counters[c.name] = int64(1000 + i)
	}
	e := &engine{}
	st := e.buildResult(rs, 0).Stats
	for i, c := range engineCounters {
		f := c.field(&st)
		if fields[f] {
			t.Errorf("counter %q shares its Stats field with another", c.name)
		}
		fields[f] = true
		if *f != int64(1000+i) {
			t.Errorf("buildResult read %d into the field of %q, want %d", *f, c.name, 1000+i)
		}
	}
	if res := e.buildResult(rs, 0); res.Count != st.Results {
		t.Errorf("Count = %d, want the results counter %d", res.Count, st.Results)
	}
}
