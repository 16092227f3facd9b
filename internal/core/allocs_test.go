package core

// Allocation-discipline regression tests for the expansion hot path and the
// gpsi wire codec. Kimmig et al. (shared-memory subgraph enumeration) show
// allocation behavior dominates enumeration throughput; these tests pin the
// steady state at zero allocations per processed message so it cannot
// silently regress.

import (
	"runtime"
	"testing"

	"psgl/internal/gen"
	"psgl/internal/pattern"
)

func TestExpandSteadyStateZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation profiling in -short mode")
	}
	for _, strategy := range []Strategy{StrategyWorkloadAware, StrategyRandom, StrategyRoulette} {
		t.Run(strategy.String(), func(t *testing.T) {
			e, ctx, inbox, err := newHotpathHarness(pattern.PG2(), strategy)
			if err != nil {
				t.Fatal(err)
			}
			// Warm up: grow scratch frames, counter map entries, send-buffer
			// capacity, and the per-step load slots.
			for _, env := range inbox {
				e.Process(ctx, env)
			}
			i := 0
			avg := testing.AllocsPerRun(200, func() {
				ctx.ResetSends()
				e.Process(ctx, inbox[i%len(inbox)])
				i++
			})
			if avg != 0 {
				t.Errorf("expand allocates %.1f/op in steady state, want 0", avg)
			}
			// The same pin across chunk boundaries: the whole inbox between two
			// resets fills every destination's batch many chunks deep, and the
			// context must walk into the chunks it kept, not allocate.
			avg = testing.AllocsPerRun(20, func() {
				ctx.ResetSends()
				for _, env := range inbox {
					e.Process(ctx, env)
				}
			})
			if sent := ctx.SentCount(); sent < 1000*int64(e.opts.Workers) {
				t.Fatalf("the inbox sends %d messages: too few to cross chunks for %d workers", sent, e.opts.Workers)
			}
			if avg != 0 {
				t.Errorf("expanding the whole inbox allocates %.1f/run in steady state, want 0", avg)
			}
		})
	}
}

// TestRunBytesPerGpsi is the whole-run companion to the per-message pins: what
// a run allocates, all told — engine set-up, frontier chunks, loop bookkeeping
// — per Gpsi it generates. A Gpsi's envelope is 80 bytes and is allocated
// once, in the chunk that carries it from Send to Process; the budget leaves
// that as much again for everything else. (Before chunks every superstep's
// out-buffers regrew from nil and the barrier copied them: ~450 B.)
func TestRunBytesPerGpsi(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocations are not the run's")
	}
	g := gen.ChungLu(15000, 75000, 2.2, 1)
	for _, async := range []bool{false, true} {
		opts := NewOptions()
		opts.Workers, opts.Seed, opts.AsyncExchange = 2, 1, async
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := Run(g, pattern.PG2(), opts)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		perGpsi := float64(after.TotalAlloc-before.TotalAlloc) / float64(res.Stats.GpsiGenerated)
		t.Logf("async=%v: %d Gpsis, %.0f B allocated per Gpsi", async, res.Stats.GpsiGenerated, perGpsi)
		if perGpsi > 160 {
			t.Errorf("async=%v: %.0f B allocated per Gpsi generated, budget 160", async, perGpsi)
		}
	}
}

func TestGpsiWireRoundTripZeroAllocs(t *testing.T) {
	m := gpsi{N: 5, Next: 3, Expanded: 0b10011, Pending: 0xbeef}
	for i := range m.Map {
		m.Map[i] = unmapped
	}
	m.Map[0], m.Map[1], m.Map[3] = 42, 7, 1<<30
	buf := make([]byte, 0, 64)
	var out gpsi
	avg := testing.AllocsPerRun(500, func() {
		buf = m.AppendWire(buf[:0])
		rest, err := out.DecodeWire(buf)
		if err != nil || len(rest) != 0 {
			t.Fatalf("round trip: rest=%d err=%v", len(rest), err)
		}
	})
	if avg != 0 {
		t.Errorf("gpsi codec allocates %.1f/op, want 0", avg)
	}
	if out != m {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", out, m)
	}
}
