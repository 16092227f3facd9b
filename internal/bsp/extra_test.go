package bsp

import (
	"errors"
	"sync/atomic"
	"testing"

	"psgl/internal/graph"
)

func TestAbortDuringInit(t *testing.T) {
	boom := errors.New("init failure")
	prog := &funcProgram[int]{
		init:    func(ctx *Context[int]) { ctx.Abort(boom) },
		process: func(*Context[int], Envelope[int]) {},
	}
	cfg := Config{Workers: 2, Owner: func(graph.VertexID) int { return 0 }}
	_, err := Run[int](cfg, prog)
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted", err)
	}
}

func TestAbortNilErrorStillAborts(t *testing.T) {
	prog := &funcProgram[int]{
		init:    func(ctx *Context[int]) { ctx.Abort(nil) },
		process: func(*Context[int], Envelope[int]) {},
	}
	cfg := Config{Workers: 1, Owner: func(graph.VertexID) int { return 0 }}
	if _, err := Run[int](cfg, prog); !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted", err)
	}
}

func TestCountersMergeAcrossWorkersAndSteps(t *testing.T) {
	prog := &funcProgram[int]{
		init: func(ctx *Context[int]) {
			ctx.AddCounter("init", 1)
			if ctx.Worker() == 0 {
				for v := 0; v < 30; v++ {
					ctx.Send(graph.VertexID(v), 2)
				}
			}
		},
		process: func(ctx *Context[int], env Envelope[int]) {
			ctx.AddCounter("seen", int64(env.Msg))
			if env.Msg > 1 {
				ctx.Send(env.Dest, env.Msg-1)
			}
		},
	}
	part := graph.NewPartition(3, 5)
	cfg := Config{Workers: 3, Owner: func(v graph.VertexID) int { return part.Owner(v) }}
	stats, err := Run[int](cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Counters["init"] != 3 {
		t.Errorf("init counter = %d, want 3 (one per worker)", stats.Counters["init"])
	}
	if stats.Counters["seen"] != 30*(2+1) {
		t.Errorf("seen counter = %d, want 90", stats.Counters["seen"])
	}
}

func TestLargeFanoutDelivery(t *testing.T) {
	// One worker floods 50k messages across 8 workers in one superstep; all
	// must be delivered exactly once.
	const n = 50000
	var delivered atomic.Int64
	part := graph.NewPartition(8, 2)
	prog := &funcProgram[int]{
		init: func(ctx *Context[int]) {
			if ctx.Worker() == 0 {
				for v := 0; v < n; v++ {
					ctx.Send(graph.VertexID(v%1000), v)
				}
			}
		},
		process: func(ctx *Context[int], env Envelope[int]) {
			delivered.Add(1)
		},
	}
	cfg := Config{Workers: 8, Owner: func(v graph.VertexID) int { return part.Owner(v) }}
	stats, err := Run[int](cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if delivered.Load() != n || stats.MessagesTotal != n {
		t.Fatalf("delivered=%d total=%d want %d", delivered.Load(), stats.MessagesTotal, n)
	}
}

func TestStepVisibleInContext(t *testing.T) {
	var maxStep atomic.Int64
	prog := &funcProgram[int]{
		init: func(ctx *Context[int]) {
			if ctx.Step() != 0 {
				t.Errorf("Init at step %d", ctx.Step())
			}
			if ctx.Worker() == 0 {
				ctx.Send(0, 3)
			}
		},
		process: func(ctx *Context[int], env Envelope[int]) {
			if int64(ctx.Step()) > maxStep.Load() {
				maxStep.Store(int64(ctx.Step()))
			}
			if env.Msg > 1 {
				ctx.Send(0, env.Msg-1)
			}
		},
	}
	cfg := Config{Workers: 2, Owner: func(graph.VertexID) int { return 0 }}
	if _, err := Run[int](cfg, prog); err != nil {
		t.Fatal(err)
	}
	if maxStep.Load() != 3 {
		t.Fatalf("max observed step = %d, want 3", maxStep.Load())
	}
}

func TestTCPExchangeEmptyBatches(t *testing.T) {
	// Workers that send nothing must still exchange cleanly (empty frames).
	prog := &funcProgram[wint]{
		init: func(ctx *Context[wint]) {
			if ctx.Worker() == 0 {
				ctx.Send(0, 1) // only worker 0 sends, only to itself
			}
		},
		process: func(*Context[wint], Envelope[wint]) {},
	}
	cfg := Config{
		Workers:  4,
		Owner:    func(graph.VertexID) int { return 0 },
		Exchange: NewTCPExchangeFactory(),
	}
	stats, err := Run[wint](cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MessagesTotal != 1 {
		t.Fatalf("MessagesTotal = %d, want 1", stats.MessagesTotal)
	}
}
