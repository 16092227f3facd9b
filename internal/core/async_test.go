package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"
	"sync"
	"testing"

	"psgl/internal/bsp"
	"psgl/internal/faulttest"
	"psgl/internal/gen"
	"psgl/internal/pattern"
)

// TestAsyncDifferentialMatchesStrict pins the tentpole's core promise: the
// pipelined async exchange produces the exact same embedding multiset — not
// just the same count — as strict barriered BSP, across skewed Chung–Lu
// graphs, three patterns, all three distribution strategies, and both
// transports. Strict mode is the oracle.
func TestAsyncDifferentialMatchesStrict(t *testing.T) {
	patterns := []*pattern.Pattern{pattern.PG1(), pattern.PG3(), pattern.PG5()}
	strategies := []Strategy{StrategyRandom, StrategyRoulette, StrategyWorkloadAware}
	exchanges := []struct {
		name    string
		factory bsp.ExchangeFactory
		workers int
	}{
		{"local", nil, 4},
		{"tcp", bsp.NewTCPExchangeFactory(), 3},
	}

	seeds := []int64{1, 2}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		g := gen.ChungLu(70, 300, 2.3, seed)
		for _, p := range patterns {
			for _, strat := range strategies {
				for _, ex := range exchanges {
					if testing.Short() && ex.name == "tcp" && strat != StrategyWorkloadAware {
						continue
					}
					name := fmt.Sprintf("seed%d/%s/%s/%s", seed, p.Name(), strat, ex.name)
					t.Run(name, func(t *testing.T) {
						base := Options{
							Workers:  ex.workers,
							Strategy: strat,
							Seed:     seed,
							Collect:  true,
						}
						strictRes, err := Run(g, p, base)
						if err != nil {
							t.Fatal(err)
						}
						asyncOpts := base
						asyncOpts.Exchange = ex.factory
						asyncOpts.AsyncExchange = true
						asyncRes, err := Run(g, p, asyncOpts)
						if err != nil {
							t.Fatal(err)
						}
						if strictRes.Count != asyncRes.Count {
							t.Fatalf("counts diverge: strict=%d async=%d",
								strictRes.Count, asyncRes.Count)
						}
						want := make([]string, 0, len(strictRes.Instances))
						for _, inst := range strictRes.Instances {
							want = append(want, embeddingKey(inst))
						}
						got := make([]string, 0, len(asyncRes.Instances))
						for _, inst := range asyncRes.Instances {
							got = append(got, embeddingKey(inst))
						}
						sort.Strings(want)
						sort.Strings(got)
						if len(got) != len(want) {
							t.Fatalf("%d async embeddings, strict has %d", len(got), len(want))
						}
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("embedding multiset diverges at #%d: async %q, strict %q",
									i, got[i], want[i])
							}
						}
					})
				}
			}
		}
	}
}

// TestAsyncRecoveryCountsExact: an async run whose frames are failed by a
// schedule, recovered via quiescence checkpoints, must still report the
// strict run's exact count — the exactly-once guarantee carries over from
// barriers to quiescence points. The schedule fails a house run's frames (a
// diamond run, which completes in two supersteps, sends too few frames to
// reach its third).
func TestAsyncRecoveryCountsExact(t *testing.T) {
	g := gen.ChungLu(70, 300, 2.3, 7)
	p := pattern.PG5()
	strictRes, err := Run(g, p, Options{Workers: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	factory := faulttest.Schedule(t, nil,
		bsp.StepFault{Step: 2, Kind: bsp.StepFaultFail},
		bsp.StepFault{Step: 2, Kind: bsp.StepFaultFail},
		bsp.StepFault{Step: 3, Kind: bsp.StepFaultFail},
		bsp.StepFault{Step: 3, Kind: bsp.StepFaultFail},
	)
	asyncRes, err := Run(g, p, Options{
		Workers:         3,
		Seed:            7,
		Exchange:        factory,
		AsyncExchange:   true,
		Retry:           bsp.RetryPolicy{MaxAttempts: 2, BaseBackoff: 100e3, MaxBackoff: 2e6},
		CheckpointEvery: 1,
		CheckpointStore: bsp.NewMemCheckpointStore(),
		MaxRecoveries:   6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if strictRes.Count != asyncRes.Count {
		t.Fatalf("recovered async count %d != strict %d (recoveries=%d)",
			asyncRes.Count, strictRes.Count, asyncRes.Stats.Recoveries)
	}

	// The run above ends before a checkpoint can fall due while a worker is
	// still to seed. On a larger graph it can: sweep one failure (no retry,
	// so a recovery) over wire frames 3-15, three runs a cell (frame timing
	// varies, and with it whose frame the failure lands on), where a snapshot
	// taken before some worker's Init once lost its seeds without an error,
	// and where workers are still seeding from their cursors. A worker sends
	// some 18 frames in all, so every failure must fire. Some recovery in the
	// sweep must restore a snapshot with a cursor still queued. It lists
	// diamonds: a square closes one hop after its seed, and a worker sends
	// two frames.
	g = gen.ChungLu(10000, 40000, 2.0, 3)
	p = pattern.PG3()
	strictRes, err = Run(g, p, Options{Workers: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	restoredCursors := 0
	for _, every := range []int{1, 2} {
		for seq := 3; seq <= 15; seq += 4 {
			for try := 0; try < 3; try++ {
				factory := faulttest.Schedule(t, nil, bsp.StepFault{Step: seq, Kind: bsp.StepFaultFail})
				store := &restoreProbe{MemCheckpointStore: bsp.NewMemCheckpointStore(), t: t}
				res, err := Run(g, p, Options{
					Workers:         3,
					Seed:            3,
					Exchange:        factory,
					AsyncExchange:   true,
					CheckpointEvery: every,
					CheckpointStore: store,
					MaxRecoveries:   3,
				})
				restoredCursors += store.cursors
				if err != nil {
					t.Fatalf("every=%d try %d, fail@%d: %v", every, try, seq, err)
				}
				if res.Count != strictRes.Count {
					t.Fatalf("every=%d try %d, fail@%d: recovered async count %d != strict %d (recoveries=%d)",
						every, try, seq, res.Count, strictRes.Count, res.Stats.Recoveries)
				}
			}
		}
	}
	if restoredCursors == 0 {
		t.Fatal("no recovery in the sweep restored a snapshot with a seed cursor queued: no failure landed mid-seeding")
	}
}

// TestCheckpointMidSeedingRestoresExactCounts: under the pipelined policy a
// worker seeds from a cursor on its own queue, so a checkpoint taken mid-run
// finds cursors still queued, and a run resumed from one — which never runs
// Init — must finish seeding from them to the strict run's exact count. A
// cursor kept anywhere but on the queue would be missing from every snapshot,
// and its seeds from every resumed run. The run lists diamonds: a square
// closes one hop after its seed and its run quiesces once, when seeding is
// over.
func TestCheckpointMidSeedingRestoresExactCounts(t *testing.T) {
	g := gen.ChungLu(10000, 40000, 2.0, 3)
	p := pattern.PG3()
	base := Options{Workers: 3, Seed: 3}
	want, err := Run(g, p, base)
	if err != nil {
		t.Fatal(err)
	}
	log := &snapshotLog{}
	opts := base
	opts.AsyncExchange, opts.CheckpointEvery, opts.CheckpointStore = true, 1, log
	res, err := Run(g, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != want.Count {
		t.Fatalf("checkpointed async count %d != strict %d", res.Count, want.Count)
	}
	var mid [][]byte
	for _, snap := range log.saves {
		if queuedCursors(t, snap) > 0 {
			mid = append(mid, snap)
		}
	}
	if len(mid) == 0 {
		t.Fatalf("none of the run's %d snapshots holds a queued seed cursor", len(log.saves))
	}
	for _, i := range []int{0, len(mid) / 2, len(mid) - 1} {
		from := bsp.NewMemCheckpointStore()
		if err := from.Save(i, mid[i]); err != nil {
			t.Fatal(err)
		}
		resumed := base
		resumed.AsyncExchange, resumed.ResumeFrom = true, from
		res, err := Run(g, p, resumed)
		if err != nil {
			t.Fatalf("resuming from mid-seeding snapshot %d of %d: %v", i, len(mid), err)
		}
		if res.Count != want.Count {
			t.Fatalf("resumed from mid-seeding snapshot %d of %d (%d cursors queued): count %d != strict %d",
				i, len(mid), queuedCursors(t, mid[i]), res.Count, want.Count)
		}
	}
}

// snapshotLog is a checkpoint store that keeps every snapshot saved into it.
type snapshotLog struct {
	mu    sync.Mutex
	saves [][]byte
}

func (s *snapshotLog) Save(_ int, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.saves = append(s.saves, bytes.Clone(data))
	return nil
}

func (s *snapshotLog) Load() (int, []byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.saves) == 0 {
		return 0, nil, bsp.ErrNoCheckpoint
	}
	return len(s.saves) - 1, s.saves[len(s.saves)-1], nil
}

// restoreProbe is a checkpoint store that counts the seed cursors queued in
// the snapshots a recovery restores.
type restoreProbe struct {
	*bsp.MemCheckpointStore
	t       *testing.T
	cursors int
}

func (s *restoreProbe) Load() (int, []byte, error) {
	step, data, err := s.MemCheckpointStore.Load()
	if err == nil {
		s.cursors += queuedCursors(s.t, data)
	}
	return step, data, err
}

// queuedCursors counts the seed cursors queued in a sealed bsp snapshot. It
// reads the snapshot as bsp writes it — an 8-byte magic and a CRC-32, then
// the gob-encoded snapshot — and decodes only its queued envelopes.
func queuedCursors(t *testing.T, sealed []byte) int {
	t.Helper()
	const header = 8 + 4
	var snap struct{ Inboxes [][]bsp.Envelope[gpsi] }
	if err := gob.NewDecoder(bytes.NewReader(sealed[header:])).Decode(&snap); err != nil {
		t.Fatalf("decoding a snapshot's queues: %v", err)
	}
	n := 0
	for _, in := range snap.Inboxes {
		for _, env := range in {
			if env.Msg.isCursor() {
				n++
			}
		}
	}
	return n
}
