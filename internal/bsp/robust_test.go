package bsp

// Tests for the fault-tolerance layer of the run loop: abort
// short-circuiting, context cancellation and deadlines, barrier
// checkpointing + resume, and a failed Send ending the run. The transports
// themselves are covered by transport_test.go.

import (
	"context"
	"errors"
	"net"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"psgl/internal/graph"
	"psgl/internal/obs"
)

// --- Abort short-circuit -------------------------------------------------

func TestAbortShortCircuitsInbox(t *testing.T) {
	// One worker, 100 queued messages, abort on the first: the remaining 99
	// must not be processed in that superstep.
	var processed atomic.Int64
	prog := &funcProgram[int]{
		init: func(ctx *Context[int]) {
			for i := 0; i < 100; i++ {
				ctx.Send(0, i)
			}
		},
		process: func(ctx *Context[int], env Envelope[int]) {
			processed.Add(1)
			ctx.Abort(errors.New("stop now"))
		},
	}
	cfg := Config{Workers: 1, Owner: func(graph.VertexID) int { return 0 }}
	stats, err := Run[int](cfg, prog)
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted", err)
	}
	if got := processed.Load(); got != 1 {
		t.Fatalf("processed %d messages after abort, want exactly 1", got)
	}
	if stats.WorkerMessages[0] != 1 {
		t.Fatalf("WorkerMessages[0] = %d, want 1 (only processed messages count)", stats.WorkerMessages[0])
	}
}

// --- Cancellation and deadlines ------------------------------------------

func TestRunContextCancellation(t *testing.T) {
	// An infinite program must stop promptly once the context expires.
	prog := &funcProgram[int]{
		init: func(ctx *Context[int]) {
			for v := 0; v < 1000; v++ {
				ctx.Send(graph.VertexID(v), 0)
			}
		},
		process: func(ctx *Context[int], env Envelope[int]) {
			ctx.Send(env.Dest, 0)
		},
	}
	part := graph.NewPartition(3, 1)
	cfg := Config{Workers: 3, Owner: func(v graph.VertexID) int { return part.Owner(v) }}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := RunContext[int](ctx, cfg, prog)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

// --- Checkpointing -------------------------------------------------------

func TestCheckpointCadence(t *testing.T) {
	store := NewMemCheckpointStore()
	prog, cfg := newEcho(100, 5, 4)
	cfg.CheckpointEvery = 2
	cfg.CheckpointStore = store
	stats, err := Run[wint](cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	// 7 supersteps (0..6); exchanges after steps 0..5; snapshots at barriers
	// entering even steps 2, 4, 6.
	if stats.Supersteps != 7 {
		t.Fatalf("Supersteps = %d, want 7", stats.Supersteps)
	}
	if store.Saves() != 3 {
		t.Fatalf("saves = %d, want 3 (every 2nd of 6 barriers)", store.Saves())
	}
	if store.LatestStep() != 6 {
		t.Fatalf("latest checkpoint step = %d, want 6", store.LatestStep())
	}
	if stats.Counters["delivered"] != 600 {
		t.Fatalf("delivered = %d, want 600 (checkpointing must not change results)", stats.Counters["delivered"])
	}
}

func TestCheckpointStoreRoundTrip(t *testing.T) {
	stores := map[string]CheckpointStore{
		"mem": NewMemCheckpointStore(),
	}
	fileStore, err := NewFileCheckpointStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	stores["file"] = fileStore
	for name, store := range stores {
		if _, _, err := store.Load(); !errors.Is(err, ErrNoCheckpoint) {
			t.Errorf("%s: empty Load err = %v, want ErrNoCheckpoint", name, err)
		}
		if err := store.Save(3, []byte("alpha")); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := store.Save(5, []byte("beta")); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		step, data, err := store.Load()
		if err != nil || step != 5 || string(data) != "beta" {
			t.Errorf("%s: Load = (%d, %q, %v), want (5, beta, nil)", name, step, data, err)
		}
	}
}

func TestFileCheckpointStorePersistsAndPrunes(t *testing.T) {
	dir := t.TempDir()
	store, err := NewFileCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save(1, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := store.Save(2, []byte("two")); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("%d files after pruning, want 1", len(entries))
	}
	// A fresh store over the same directory sees the latest snapshot.
	reopened, err := NewFileCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	step, data, err := reopened.Load()
	if err != nil || step != 2 || string(data) != "two" {
		t.Fatalf("reopened Load = (%d, %q, %v), want (2, two, nil)", step, data, err)
	}
}

func TestResumeFromCheckpointMatchesCleanRun(t *testing.T) {
	clean := func() *RunStats {
		prog, cfg := newEcho(60, 6, 3)
		stats, err := Run[wint](cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}()

	// Stopped run: canceled right after the barrier entering step 3 was
	// checkpointed.
	prog, cfg := newEcho(60, 6, 3)
	store := stopAfterSave(t, cfg, prog, 3)
	if store.LatestStep() != 3 {
		t.Fatalf("latest checkpoint = %d, want 3", store.LatestStep())
	}

	// Resumed run: fresh program + clean exchange, state restored from the
	// last barrier. Totals must match the clean run exactly.
	prog2, cfg2 := newEcho(60, 6, 3)
	cfg2.ResumeFrom = store
	resumed, err := Run[wint](cfg2, prog2)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Supersteps != clean.Supersteps {
		t.Errorf("Supersteps = %d, want %d", resumed.Supersteps, clean.Supersteps)
	}
	if resumed.MessagesTotal != clean.MessagesTotal {
		t.Errorf("MessagesTotal = %d, want %d", resumed.MessagesTotal, clean.MessagesTotal)
	}
	if resumed.Counters["delivered"] != clean.Counters["delivered"] {
		t.Errorf("delivered = %d, want %d", resumed.Counters["delivered"], clean.Counters["delivered"])
	}
	if !reflect.DeepEqual(resumed.PerStepMessages, clean.PerStepMessages) {
		t.Errorf("PerStepMessages = %v, want %v", resumed.PerStepMessages, clean.PerStepMessages)
	}
}

func TestResumeFromEmptyStoreStartsFresh(t *testing.T) {
	prog, cfg := newEcho(50, 3, 2)
	cfg.ResumeFrom = NewMemCheckpointStore()
	stats, err := Run[wint](cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Counters["delivered"] != 200 {
		t.Fatalf("delivered = %d, want 200", stats.Counters["delivered"])
	}
}

func TestResumeRejectsWorkerMismatch(t *testing.T) {
	store := NewMemCheckpointStore()
	prog, cfg := newEcho(60, 6, 3)
	cfg.CheckpointEvery = 1
	cfg.CheckpointStore = store
	if _, err := Run[wint](cfg, prog); err != nil {
		t.Fatal(err)
	}
	prog2, cfg2 := newEcho(60, 6, 2) // different worker count
	cfg2.ResumeFrom = store
	if _, err := Run[wint](cfg2, prog2); !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("resume with mismatched worker count: err = %v, want ErrCorruptCheckpoint", err)
	}
}

// savesThenCancel is a checkpoint store that cancels the run's context right
// after its nth Save: a stop at a known boundary, with no fault injected.
type savesThenCancel struct {
	*MemCheckpointStore
	n      int
	cancel context.CancelFunc
}

func (s *savesThenCancel) Save(step int, data []byte) error {
	err := s.MemCheckpointStore.Save(step, data)
	if s.Saves() == s.n {
		s.cancel()
	}
	return err
}

// tryStopAfterSave runs prog under cfg, checkpointing at every boundary, and
// stops it right after its nth save; it returns the store to resume from,
// and the run's error, which is context.Canceled unless the run ended first.
func tryStopAfterSave[M any](cfg Config, prog Program[M], n int) (*MemCheckpointStore, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	store := &savesThenCancel{MemCheckpointStore: NewMemCheckpointStore(), n: n, cancel: cancel}
	cfg.CheckpointEvery, cfg.CheckpointStore = 1, store
	_, err := RunContext(ctx, cfg, prog)
	return store.MemCheckpointStore, err
}

// stopAfterSave is tryStopAfterSave for a run that must stop there.
func stopAfterSave[M any](t *testing.T, cfg Config, prog Program[M], n int) *MemCheckpointStore {
	t.Helper()
	store, err := tryStopAfterSave(cfg, prog, n)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("run stopped after save %d: err = %v, want context.Canceled", n, err)
	}
	return store
}

// TestResumeAfterEverySaveMatchesCleanRun stops a run after each of its saves
// in turn, in both policies and over both transports, and resumes it in a
// new run: every resumed run's logical totals equal the clean run's.
func TestResumeAfterEverySaveMatchesCleanRun(t *testing.T) {
	for _, async := range []bool{false, true} {
		for name, exchange := range map[string]func() ExchangeFactory{
			"local": func() ExchangeFactory { return nil },
			"tcp":   func() ExchangeFactory { return NewTCPExchangeFactory() },
		} {
			prog, cfg := newEcho(80, 6, 3)
			cfg.Exchange, cfg.AsyncExchange = exchange(), async
			clean, err := Run[wint](cfg, prog)
			if err != nil {
				t.Fatal(err)
			}
			saves := NewMemCheckpointStore()
			counted := cfg
			counted.CheckpointEvery, counted.CheckpointStore = 1, saves
			prog, _ = newEcho(80, 6, 3)
			if _, err := Run[wint](counted, prog); err != nil {
				t.Fatal(err)
			}
			if saves.Saves() == 0 {
				t.Fatalf("async=%v %s: the run took no checkpoint", async, name)
			}
			// A pipelined run's pauses follow frame timing, so a run may end
			// before its nth save; a stepped run saves at every barrier.
			stopped := 0
			for n := 1; n <= saves.Saves(); n++ {
				prog, _ = newEcho(80, 6, 3)
				cfg.Exchange = exchange()
				store, err := tryStopAfterSave(cfg, prog, n)
				if err == nil && async {
					continue
				} else if !errors.Is(err, context.Canceled) {
					t.Fatalf("async=%v %s: run stopped after save %d: err = %v, want context.Canceled", async, name, n, err)
				}
				stopped++
				resumed := cfg
				resumed.Exchange, resumed.ResumeFrom = exchange(), store
				prog, _ = newEcho(80, 6, 3)
				got, err := Run[wint](resumed, prog)
				if err != nil {
					t.Fatalf("async=%v %s: resuming after save %d: %v", async, name, n, err)
				}
				if !reflect.DeepEqual(got.Counters, clean.Counters) || got.MessagesTotal != clean.MessagesTotal {
					t.Errorf("async=%v %s: resumed after save %d: counters %v, %d messages; clean %v, %d",
						async, name, n, got.Counters, got.MessagesTotal, clean.Counters, clean.MessagesTotal)
				}
				if !async && !reflect.DeepEqual(got.PerStepMessages, clean.PerStepMessages) {
					t.Errorf("%s: resumed after save %d: PerStepMessages %v, want %v", name, n, got.PerStepMessages, clean.PerStepMessages)
				}
			}
			if stopped == 0 {
				t.Errorf("async=%v %s: no run stopped after a save", async, name)
			}
		}
	}
}

// failingTransport delivers in-process and fails the Send numbered failAt
// (from 1) with errSendFailed, delivering nothing of it; fired records that
// it did.
type failingTransport struct {
	inner  transport[wint]
	sends  atomic.Int64
	failAt int64
	fired  atomic.Bool
}

var errSendFailed = errors.New("send failed")

func (f *failingTransport) Send(ctx context.Context, src, dst, ord int, batch [][]Envelope[wint]) (bool, error) {
	if f.sends.Add(1) == f.failAt {
		f.fired.Store(true)
		return false, errSendFailed
	}
	return f.inner.Send(ctx, src, dst, ord, batch)
}

func (f *failingTransport) Close() error { return f.inner.Close() }

// TestFailedSendEndsTheRun: with no recovery, a frame that fails to send is
// never silently dropped. The run returns the transport's error, in both
// policies, whichever Send fails, with the observer told and no goroutine
// left behind; over TCP, a torn write does the same. A pipelined run ships
// every non-empty batch after every message here (asyncFlushEvery = 1), so
// whatever the timing it makes more Sends than the highest failAt.
func TestFailedSendEndsTheRun(t *testing.T) {
	for _, async := range []bool{false, true} {
		for _, failAt := range []int64{1, 5, 20} {
			base := runtime.NumGoroutine()
			o := obs.New(nil)
			prog, cfg := newEcho(60, 5, 3)
			cfg.AsyncExchange, cfg.Observer, cfg.asyncFlushEvery = async, o, 1
			r := newTestRun[wint](cfg, prog, false)
			tr := &failingTransport{inner: localTransport[wint]{h: r.hooks()}, failAt: failAt}
			r.transport = tr
			err := r.drive(context.Background())
			if !tr.fired.Load() {
				t.Fatalf("async=%v: the run made %d Sends, so Send %d never failed (err = %v)", async, tr.sends.Load(), failAt, err)
			}
			if !errors.Is(err, errSendFailed) {
				t.Fatalf("async=%v, Send %d fails: err = %v, want the transport's error", async, failAt, err)
			}
			if got := o.Snapshot().Retries; got != 1 {
				t.Errorf("async=%v, Send %d fails: the observer saw %d failed sends, want 1", async, failAt, got)
			}
			waitGoroutinesBack(t, base)
		}
	}

	testDialHook = func(src, dst int, addr string, timeout time.Duration) (net.Conn, error) {
		conn, err := net.DialTimeout("tcp", addr, timeout)
		if err == nil && src == 0 && dst == 1 {
			conn = &tornConn{Conn: conn}
		}
		return conn, err
	}
	defer func() { testDialHook = nil }()
	for _, async := range []bool{false, true} {
		base := runtime.NumGoroutine()
		prog, cfg := newEcho(60, 5, 2)
		cfg.Exchange, cfg.AsyncExchange = NewTCPExchangeFactory(), async
		if _, err := Run[wint](cfg, prog); err == nil || !strings.Contains(err.Error(), "injected torn write") {
			t.Fatalf("async=%v: torn write: err = %v, want the write's error", async, err)
		}
		waitGoroutinesBack(t, base)
	}
}

// TestCounterSlots pins what RunStats.Counters promises now that counters are
// slots: a key is present iff its total is non-zero (a zero delta creates
// none), and a counter whose first use comes after a snapshot was written —
// so the snapshot has no key for it — resumes to the clean run's totals.
func TestCounterSlots(t *testing.T) {
	late := CounterID("late")
	newProg := func() *funcProgram[int] {
		return &funcProgram[int]{
			init: func(ctx *Context[int]) {
				ctx.AddCounter("never", 0)
				for v := 0; v < 20; v++ {
					ctx.Send(graph.VertexID(v), 5)
				}
			},
			process: func(ctx *Context[int], env Envelope[int]) {
				ctx.AddCounter("early", 1)
				if ctx.Step() >= 3 {
					ctx.Add(late, 2)
				}
				if env.Msg > 0 {
					ctx.Send(env.Dest+1, env.Msg-1)
				}
			},
		}
	}
	cfg := Config{Workers: 3, Owner: func(v graph.VertexID) int { return int(v) % 3 }}
	clean, err := Run[int](cfg, newProg())
	if err != nil {
		t.Fatal(err)
	}
	if want := map[string]int64{"early": 360, "late": 480}; !reflect.DeepEqual(clean.Counters, want) {
		t.Fatalf("clean counters = %v, want %v (and no key for the zero delta)", clean.Counters, want)
	}

	store := stopAfterSave(t, cfg, newProg(), 3)
	snap, err := loadSnapshot[int](store)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := snap.Stats.Counters["late"]; ok || snap.Step != 3 {
		t.Fatalf("snapshot at step %d has counters %v: want step 3, before the first use of late", snap.Step, snap.Stats.Counters)
	}
	resumed := cfg
	resumed.ResumeFrom = store
	got, err := Run[int](resumed, newProg())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Counters, clean.Counters) {
		t.Errorf("resumed counters = %v, want %v", got.Counters, clean.Counters)
	}
}
