package chaos

// Chaos coverage for compressed frames (core.Options.CompressFrames): the
// grouped inboxes ride barrier snapshots as still-encoded frames, so kills,
// drops, partitions, and checkpoint corruption now stress the compressed
// save/restore path too. The invariant is unchanged — recovery must be
// invisible in the count — plus one stronger property: the logical
// compression counters themselves must come out exactly-once.

import (
	"context"
	"testing"

	"psgl/internal/bsp"
	"psgl/internal/core"
	"psgl/internal/gen"
	"psgl/internal/pattern"
)

// TestCompressedKillOneWorkerBitIdenticalLocal reruns the acceptance kill
// schedule with compressed frames: the restored snapshot carries grouped
// frames that are re-decoded on replay, and the count must stay
// bit-identical to the (compressed) clean run. The patterns here follow the
// rule in chaos_test.go.
func TestCompressedKillOneWorkerBitIdenticalLocal(t *testing.T) {
	g := gen.ErdosRenyi(80, 500, 1)
	p := pattern.PG5()
	for seed := int64(1); seed <= 5; seed++ {
		sched := NewKillSchedule(seed, 3, 2)
		out, err := Run(context.Background(), Config{
			Graph:   g,
			Pattern: p,
			Opts:    core.Options{Workers: 3, Seed: 1, CompressFrames: true},
		}, sched)
		if err != nil {
			t.Fatalf("seed %d (%s): %v", seed, sched, err)
		}
		if !out.Identical {
			t.Fatalf("seed %d (%s): compressed chaos count %d != clean %d",
				seed, sched, out.ChaosCount, out.CleanCount)
		}
		if out.Recoveries == 0 && out.Restarts == 0 {
			t.Fatalf("seed %d (%s): kill fired but neither recovery nor restart recorded", seed, sched)
		}
	}
}

// TestCompressedKillScheduleBitIdenticalTCP: compressed frames over real
// loopback-TCP pipes under worker death — the wire format under test is the
// prefix-compressed one end to end, and recovery rebuilds the mesh. A house:
// the kill lands on barrier 1 or 2.
func TestCompressedKillScheduleBitIdenticalTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp chaos in -short mode")
	}
	g := gen.ErdosRenyi(60, 300, 2)
	p := pattern.PG5()
	for seed := int64(1); seed <= 3; seed++ {
		sched := NewKillSchedule(seed, 3, 2)
		out, err := Run(context.Background(), Config{
			Graph:    g,
			Pattern:  p,
			Opts:     core.Options{Workers: 3, Seed: 2, CompressFrames: true},
			Exchange: bsp.NewTCPExchangeFactory(),
		}, sched)
		if err != nil {
			t.Fatalf("seed %d (%s): %v", seed, sched, err)
		}
		if !out.Identical {
			t.Fatalf("seed %d (%s): compressed chaos count %d != clean %d",
				seed, sched, out.ChaosCount, out.CleanCount)
		}
	}
}

// TestCompressedMixedScheduleSurvives: a dense seeded schedule (kills, drops,
// delays, partitions) against compressed grouped exchanges still converges.
// PG5 on a skewed Chung–Lu graph keeps batches dense enough that compression
// actually engages while the faults fire, on barriers 1 and 2 (a house has
// three supersteps).
func TestCompressedMixedScheduleSurvives(t *testing.T) {
	g := gen.ChungLu(70, 300, 2.3, 3)
	p := pattern.PG5()
	sched := NewSchedule(42, 3, 2, 4)
	out, err := Run(context.Background(), Config{
		Graph:   g,
		Pattern: p,
		Opts:    core.Options{Workers: 3, Seed: 3, CompressFrames: true},
	}, sched)
	if err != nil {
		t.Fatalf("%s: %v", sched, err)
	}
	if !out.Identical {
		t.Fatalf("%s: compressed chaos count %d != clean %d", sched, out.ChaosCount, out.CleanCount)
	}
	if out.FaultsInjected != 4 {
		t.Fatalf("injected %d, want 4", out.FaultsInjected)
	}
}

// TestCompressedCorruptCheckpointIsDetectedNotSilent: a mangled snapshot now
// contains grouped frames, and the corrupted restore must still surface
// bsp.ErrCorruptCheckpoint (the CRC seal plus grouped-frame validation),
// force a whole-query restart, and end bit-identical — never silently decode
// garbage into Gpsis.
func TestCompressedCorruptCheckpointIsDetectedNotSilent(t *testing.T) {
	g := gen.ErdosRenyi(80, 500, 4)
	p := pattern.PG5()
	sched := Schedule{Seed: 7, Events: []Event{
		{Step: 1, Kind: CorruptCheckpoint},
		{Step: 2, Kind: Kill, Worker: 1},
	}}
	out, err := Run(context.Background(), Config{
		Graph:           g,
		Pattern:         p,
		Opts:            core.Options{Workers: 3, Seed: 4, CompressFrames: true},
		CheckpointEvery: 1,
	}, sched)
	if err != nil {
		t.Fatalf("%s: %v", sched, err)
	}
	if out.CorruptionsInjected != 1 {
		t.Fatalf("corruptions injected = %d, want 1", out.CorruptionsInjected)
	}
	if out.CorruptionsDetected != 1 {
		t.Fatalf("corruptions detected = %d, want 1 (corrupt restore must fail loudly)", out.CorruptionsDetected)
	}
	if out.Restarts == 0 {
		t.Fatal("corrupt checkpoint must force a whole-query restart")
	}
	if !out.Identical {
		t.Fatalf("%s: compressed chaos count %d != clean %d", sched, out.ChaosCount, out.CleanCount)
	}
}

// TestCompressedAsyncKillBitIdenticalLocal: compressed wire format on the
// pipelined async exchange under the kill schedule — frames are compressed
// per Send, termination is credit-based, and the count must match the clean
// compressed async run.
func TestCompressedAsyncKillBitIdenticalLocal(t *testing.T) {
	g := gen.ErdosRenyi(80, 500, 1)
	p := pattern.PG2()
	for seed := int64(1); seed <= 3; seed++ {
		sched := NewKillSchedule(seed, 3, 2)
		out, err := Run(context.Background(), Config{
			Graph:   g,
			Pattern: p,
			Opts:    core.Options{Workers: 3, Seed: 1, AsyncExchange: true, CompressFrames: true},
		}, sched)
		if err != nil {
			t.Fatalf("seed %d (%s): %v", seed, sched, err)
		}
		if !out.Identical {
			t.Fatalf("seed %d (%s): compressed async chaos count %d != clean %d",
				seed, sched, out.ChaosCount, out.CleanCount)
		}
	}
}
