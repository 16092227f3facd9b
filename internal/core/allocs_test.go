package core

// Allocation-discipline regression tests for the expansion hot path and the
// gpsi wire codec. Kimmig et al. (shared-memory subgraph enumeration) show
// allocation behavior dominates enumeration throughput; these tests pin the
// steady state at zero allocations per processed message so it cannot
// silently regress.

import (
	"runtime"
	"testing"
	"unsafe"

	"psgl/internal/bsp"
	"psgl/internal/gen"
	"psgl/internal/graph"
	"psgl/internal/pattern"
)

func TestExpandSteadyStateZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation profiling in -short mode")
	}
	// The diamond's seeds run combine's intersection, whose owner split
	// grows buffers of its own.
	type row struct {
		name     string
		p        *pattern.Pattern
		strategy Strategy
	}
	var rows []row
	for _, strategy := range []Strategy{StrategyWorkloadAware, StrategyRandom, StrategyRoulette} {
		rows = append(rows, row{strategy.String(), pattern.PG2(), strategy}, row{"diamond/" + strategy.String(), pattern.PG3(), strategy})
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			e, ctx, inbox, err := newHotpathHarness(r.p, r.strategy)
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
// — per Gpsi it generates. Every policy builds each seed where it expands it,
// so a seed has no envelope; every other Gpsi's envelope is 80 bytes,
// allocated once, in the chunk that carries it from Send to Process. Strict:
// 85 B, budget 113 (89 B, budget 160, while Init still sent every seed to
// itself; ~450 B before chunks, when every superstep's out-buffers regrew
// from nil and the barrier copied them). A pipelined worker also refills its
// batches with the own chunks it has processed: 60 B, budget 80 (95 B with
// every seed built in Init and no chunk reused). Both budgets leave the same
// third of headroom.
//
// Over TCP (list-wire's graph shape, K = 4) a Gpsi's envelope is allocated
// at its sender only: the frame carries it in ~26 B, the receiver keeps those
// bytes until it processes them, decoding one message at a time, and the
// sender refills its next batches with the chunks a Send has encoded.
// Strict: 143-183 B, budget 210; pipelined, whose batches ship a frame at a
// time and so are refilled more: 56-71 B, budget 85 (234-240 and 163-168
// while a reader decoded every frame into envelopes and the sender dropped
// what it had encoded).
func TestRunBytesPerGpsi(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocations are not the run's")
	}
	if size := unsafe.Sizeof(bsp.Envelope[gpsi]{}); size != 80 {
		t.Fatalf("a Gpsi envelope is %d B; the budgets below assume 80", size)
	}
	local, wire := gen.ChungLu(15000, 75000, 2.2, 1), gen.ChungLu(10000, 50000, 1.8, 1)
	rows := []struct {
		g       *graph.Graph
		workers int
		tcp     bool
		async   bool
		budget  float64
	}{
		{local, 2, false, false, 113},
		{local, 2, false, true, 80},
		{wire, 4, true, false, 210},
		{wire, 4, true, true, 85},
	}
	for _, row := range rows {
		opts := NewOptions()
		opts.Workers, opts.Seed, opts.AsyncExchange = row.workers, 1, row.async
		if row.tcp {
			opts.Exchange = bsp.NewTCPExchangeFactory()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := Run(row.g, pattern.PG2(), opts)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		perGpsi := float64(after.TotalAlloc-before.TotalAlloc) / float64(res.Stats.GpsiGenerated)
		t.Logf("tcp=%v async=%v: %d Gpsis, %.0f B allocated per Gpsi", row.tcp, row.async, res.Stats.GpsiGenerated, perGpsi)
		if perGpsi > row.budget {
			t.Errorf("tcp=%v async=%v: %.0f B allocated per Gpsi generated, budget %.0f", row.tcp, row.async, perGpsi, row.budget)
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
