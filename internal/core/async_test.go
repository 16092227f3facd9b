package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"
	"sync"
	"testing"

	"psgl/internal/bsp"
	"psgl/internal/gen"
	"psgl/internal/pattern"
)

// TestAsyncDifferentialMatchesStrict pins the tentpole's core promise: the
// pipelined async exchange produces the exact same embedding multiset — not
// just the same count — as strict barriered BSP, across skewed Chung–Lu
// graphs, three patterns and both transports, in the product. Strict mode is
// the oracle. The partitioned model runs strict and in process only: its
// cells, one per strategy, check that the pipelined policy is refused.
func TestAsyncDifferentialMatchesStrict(t *testing.T) {
	patterns := []*pattern.Pattern{pattern.PG1(), pattern.PG3(), pattern.PG5()}
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
			for _, m := range runModels {
				for _, ex := range exchanges {
					if testing.Short() && ex.name == "tcp" && m.alt {
						continue
					}
					name := fmt.Sprintf("seed%d/%s/%s/%s", seed, p.Name(), m.name, ex.name)
					t.Run(name, func(t *testing.T) {
						base := Options{
							Workers: ex.workers,
							Seed:    seed,
							Collect: true,
						}
						asyncOpts := base
						asyncOpts.Exchange = ex.factory
						asyncOpts.AsyncExchange = true
						if m.partitioned() {
							requireRefused(t, m, g, p, asyncOpts)
							return
						}
						strictRes, err := m.run(g, p, base)
						if err != nil {
							t.Fatal(err)
						}
						asyncRes, err := m.run(g, p, asyncOpts)
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
