package core

// Checkpoint and resume at the engine level, with no fault injected: a run is
// stopped by canceling its context right after a checkpoint save, and a new
// run resumes from that save. The resumed run must count, account and list
// exactly what a clean run does, and a run must refuse a snapshot another run
// took.

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"

	"psgl/internal/bsp"
	"psgl/internal/gen"
	"psgl/internal/graph"
	"psgl/internal/pattern"
)

// cancelAfterSave is a checkpoint store that cancels the run's context right
// after its nth Save.
type cancelAfterSave struct {
	*bsp.MemCheckpointStore
	n      int
	cancel context.CancelFunc
}

func (s *cancelAfterSave) Save(step int, data []byte) error {
	err := s.MemCheckpointStore.Save(step, data)
	if s.Saves() == s.n {
		s.cancel()
	}
	return err
}

// stopAfterSave runs p on pr under opts with a checkpoint at every boundary
// and cancels it right after its nth save, returning the store to resume
// from. stopped is false when the run ended before its nth save (a pipelined
// run's pauses follow frame timing).
func stopAfterSave(t *testing.T, pr *Prepared, p *pattern.Pattern, opts Options, n int) (store *bsp.MemCheckpointStore, stopped bool) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	saves := &cancelAfterSave{MemCheckpointStore: bsp.NewMemCheckpointStore(), n: n, cancel: cancel}
	opts.CheckpointEvery, opts.CheckpointStore = 1, saves
	if _, err := pr.RunContext(ctx, p, opts); err == nil {
		return nil, false
	} else if !errors.Is(err, context.Canceled) {
		t.Fatalf("run stopped after save %d: err = %v, want context.Canceled", n, err)
	}
	return saves.MemCheckpointStore, true
}

// stopResume is one stop and resume: the stopped run's checkpoint, the
// resumed run's result, and, when listed, both runs' OnInstance streams.
type stopResume struct {
	snapshot          []byte
	resumed           *Result
	stopped, relisted []string
}

// stopAndResume is stopAfterSave followed by a new run under opts resumed
// from that save; ok is stopAfterSave's stopped.
func stopAndResume(t *testing.T, pr *Prepared, p *pattern.Pattern, opts Options, n int, list bool) (sr stopResume, ok bool) {
	t.Helper()
	var mu sync.Mutex
	sink := func(into *[]string) func([]graph.VertexID) {
		return func(m []graph.VertexID) {
			mu.Lock()
			*into = append(*into, embeddingKey(m))
			mu.Unlock()
		}
	}
	first := opts
	if list {
		first.OnInstance = sink(&sr.stopped)
	}
	store, ok := stopAfterSave(t, pr, p, first, n)
	if !ok {
		return sr, false
	}
	_, sr.snapshot, _ = store.Load()
	resumed := opts
	resumed.ResumeFrom = store
	if list {
		resumed.OnInstance = sink(&sr.relisted)
	}
	res, err := pr.RunContext(context.Background(), p, resumed)
	if err != nil {
		t.Fatalf("resuming from save %d: %v", n, err)
	}
	sr.resumed = res
	return sr, true
}

// logicalStats is what a resumed run must report as a clean run does: all of
// Stats but clocks in strict mode; in pipelined mode, whose supersteps and
// per-step and per-worker splits follow timing, the count, the Gpsi totals and
// the pruning split, which in one memory domain are a function of the run.
func logicalStats(st Stats, async bool) string {
	if !async {
		return withoutClocks(st)
	}
	st.WorkerMessages, st.LoadUnits, st.PerStepMessages = nil, nil, nil
	st.Supersteps, st.LoadMakespan = 0, 0
	return withoutClocks(st)
}

// TestResumeSweepMatchesCleanRun stops a diamond run after each of its
// checkpoint saves in turn, under both policies, in process and over TCP, and
// resumes it: every resumed run's count and logical Stats equal a clean run's,
// bit for bit. The graph is large enough that pipelined saves land while
// workers are still seeding from their cursors, and some resumed snapshot
// must hold a cursor.
func TestResumeSweepMatchesCleanRun(t *testing.T) {
	g := gen.ChungLu(3000, 12000, 2.0, 3)
	p := pattern.PG3()
	for _, async := range []bool{false, true} {
		cursors := 0
		for name, exchange := range map[string]bsp.ExchangeFactory{"local": nil, "tcp": bsp.NewTCPExchangeFactory()} {
			opts := Options{Workers: 3, Seed: 3, AsyncExchange: async, Exchange: exchange}
			clean, err := Run(g, p, opts)
			if err != nil {
				t.Fatal(err)
			}
			saves := bsp.NewMemCheckpointStore()
			counted := opts
			counted.CheckpointEvery, counted.CheckpointStore = 1, saves
			if _, err := Run(g, p, counted); err != nil {
				t.Fatal(err)
			}
			stops := 0
			for n := 1; n <= saves.Saves(); n++ {
				sr, ok := stopAndResume(t, Prepare(g, opts), p, opts, n, false)
				if !ok {
					if !async {
						t.Fatalf("%s strict: the run ended before its save %d of %d", name, n, saves.Saves())
					}
					continue
				}
				stops++
				if async {
					cursors += queuedCursors(t, sr.snapshot)
				}
				if sr.resumed.Count != clean.Count {
					t.Fatalf("async=%v %s: resumed after save %d: count %d, clean %d", async, name, n, sr.resumed.Count, clean.Count)
				}
				if got, want := logicalStats(sr.resumed.Stats, async), logicalStats(clean.Stats, async); got != want {
					t.Fatalf("async=%v %s: resumed after save %d: stats\n%s\nclean\n%s", async, name, n, got, want)
				}
				if !async {
					assertLoadsEqual(t, name, &sr.resumed.Stats, &clean.Stats)
				}
			}
			if stops == 0 {
				t.Fatalf("async=%v %s: no run stopped after a save (%d saves)", async, name, saves.Saves())
			}
		}
		if async && cursors == 0 {
			t.Fatal("no resumed snapshot held a seed cursor: no save landed mid-seeding")
		}
	}
}

// TestStopResumeListsEachInstanceOnce: the stopped run's OnInstance stream,
// cut to the instances its last snapshot had counted (the resumed Count less
// what the resumed run emits itself), followed by the resumed run's stream, is
// exactly the clean run's embedding multiset, whichever save the run stopped
// after, under both policies.
func TestStopResumeListsEachInstanceOnce(t *testing.T) {
	g := gen.ChungLu(400, 1600, 2.0, 5)
	p := pattern.PG5()
	for _, async := range []bool{false, true} {
		opts := Options{Workers: 3, Seed: 5, AsyncExchange: async}
		collect := opts
		collect.Collect = true
		clean, err := Run(g, p, collect)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]string, len(clean.Instances))
		for i, m := range clean.Instances {
			want[i] = embeddingKey(m)
		}
		slices.Sort(want)
		saves := bsp.NewMemCheckpointStore()
		counted := opts
		counted.CheckpointEvery, counted.CheckpointStore = 1, saves
		if _, err := Run(g, p, counted); err != nil {
			t.Fatal(err)
		}
		stops := 0
		for n := 1; n <= saves.Saves(); n++ {
			sr, ok := stopAndResume(t, Prepare(g, opts), p, opts, n, true)
			if !ok {
				continue
			}
			stops++
			before := sr.resumed.Count - int64(len(sr.relisted))
			if before < 0 || before > int64(len(sr.stopped)) {
				t.Fatalf("async=%v, save %d: the snapshot counted %d instances, the stopped run listed %d", async, n, before, len(sr.stopped))
			}
			got := append(sr.stopped[:before:before], sr.relisted...)
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("async=%v, save %d: %d instances listed across the stop (%d + %d), clean run lists %d, or the multisets differ",
					async, n, len(got), before, len(sr.relisted), len(want))
			}
		}
		if stops == 0 {
			t.Fatalf("async=%v: no run stopped after a save (%d saves)", async, saves.Saves())
		}
	}
}

// TestResumeAcrossRunsMatchesCleanRun lists houses, which take three
// supersteps (a square completes in two), stopped after the last barrier's
// save, and resumes them in a new run.
func TestResumeAcrossRunsMatchesCleanRun(t *testing.T) {
	g := gen.ErdosRenyi(60, 300, 2)
	p := pattern.PG5()
	base := Options{Workers: 3, Seed: 2}
	clean, err := Run(g, p, base)
	if err != nil {
		t.Fatal(err)
	}
	last := clean.Stats.Supersteps - 1 // barriers before supersteps 1 .. S-1
	if last < 2 {
		t.Fatalf("run too short to test resume: %d supersteps", clean.Stats.Supersteps)
	}
	sr, ok := stopAndResume(t, Prepare(g, base), p, base, last, false)
	if !ok {
		t.Fatal("the run ended before its last save")
	}
	if sr.resumed.Count != clean.Count {
		t.Fatalf("resumed run counted %d, clean run %d", sr.resumed.Count, clean.Count)
	}
	if sr.resumed.Stats.Supersteps != clean.Stats.Supersteps {
		t.Fatalf("resumed Supersteps = %d, want %d", sr.resumed.Stats.Supersteps, clean.Stats.Supersteps)
	}
}

// TestResumeRefusesAnotherRunsCheckpoint: a checkpoint is a file read from
// outside the program. Resuming a diamond run's snapshot with another
// pattern, graph or seed is refused with ErrCorruptCheckpoint — before a Gpsi
// of it is expanded, so with no panic and no count — while resuming it under
// the other policy or over TCP is the same run and counts right.
func TestResumeRefusesAnotherRunsCheckpoint(t *testing.T) {
	g := gen.ChungLu(2000, 10000, 2.0, 1)
	base := Options{Workers: 2, Seed: 1}
	store, ok := stopAfterSave(t, Prepare(g, base), pattern.PG3(), base, 1)
	if !ok {
		t.Fatal("the run ended before its first save")
	}
	clean, err := Run(g, pattern.PG3(), base)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		g    *graph.Graph
		p    *pattern.Pattern
		opts func(*Options)
	}{
		{"triangle", g, pattern.PG1(), nil},
		{"house", g, pattern.PG5(), nil},
		{"another graph", gen.ErdosRenyi(500, 2000, 1), pattern.PG3(), nil},
		{"the generator's next seed", gen.ChungLu(2000, 10000, 2.0, 7), pattern.PG3(), nil},
		{"another partition seed", g, pattern.PG3(), func(o *Options) { o.Seed = 7 }},
		{"another initial vertex", g, pattern.PG3(), func(o *Options) { o.InitialVertex = (clean.Stats.InitialVertex + 1) % 4 }},
		{"another worker count", g, pattern.PG3(), func(o *Options) { o.Workers = 3 }},
	} {
		opts := base
		if tc.opts != nil {
			tc.opts(&opts)
		}
		opts.ResumeFrom = store
		res, err := Run(tc.g, tc.p, opts)
		if !errors.Is(err, bsp.ErrCorruptCheckpoint) || res != nil {
			t.Errorf("%s: resumed another run's checkpoint: err = %v, result %v; want ErrCorruptCheckpoint and no result", tc.name, err, res)
		}
	}

	for name, mode := range map[string]func(*Options){
		"async": func(o *Options) { o.AsyncExchange = true },
		"tcp":   func(o *Options) { o.Exchange = bsp.NewTCPExchangeFactory() },
	} {
		opts := base
		mode(&opts)
		opts.ResumeFrom = store
		res, err := Run(g, pattern.PG3(), opts)
		if err != nil {
			t.Fatalf("%s: resuming a strict checkpoint: %v", name, err)
		}
		if res.Count != clean.Count {
			t.Errorf("%s: resumed a strict checkpoint to count %d, clean %d", name, res.Count, clean.Count)
		}
	}
}

// TestCorruptCheckpointIsRefusedOnResume: a stopped run's snapshot with one
// byte flipped is refused on resume with ErrCorruptCheckpoint, never decoded
// into Gpsis and counted.
func TestCorruptCheckpointIsRefusedOnResume(t *testing.T) {
	g := gen.ErdosRenyi(80, 500, 4)
	p := pattern.PG5()
	opts := Options{Workers: 3, Seed: 4}
	store, ok := stopAfterSave(t, Prepare(g, opts), p, opts, 1)
	if !ok {
		t.Fatal("the run ended before its first save")
	}
	step, data, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	mangled := bsp.NewMemCheckpointStore()
	mangled.Save(step, data)
	opts.ResumeFrom = mangled
	if res, err := Run(g, p, opts); !errors.Is(err, bsp.ErrCorruptCheckpoint) || res != nil {
		t.Errorf("resumed a corrupt checkpoint: err = %v, result %v", err, res)
	}
}

func TestRunContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := gen.ErdosRenyi(40, 150, 3)
	_, err := RunContext(ctx, g, pattern.Triangle(), Options{Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestCountsAgreeAcrossExchanges(t *testing.T) {
	// Property: the local and TCP transports are interchangeable — same
	// graph, same pattern, same count.
	for seed := int64(0); seed < 3; seed++ {
		g := gen.ErdosRenyi(60, 300, seed)
		p := pattern.PG3()
		base := Options{Workers: 3, Seed: seed}
		clean, err := Run(g, p, base)
		if err != nil {
			t.Fatal(err)
		}
		opts := base
		opts.Exchange = bsp.NewTCPExchangeFactory()
		res, err := Run(g, p, opts)
		if err != nil {
			t.Fatalf("seed %d tcp: %v", seed, err)
		}
		if res.Count != clean.Count {
			t.Errorf("seed %d: tcp counted %d, local %d", seed, res.Count, clean.Count)
		}
	}
}
