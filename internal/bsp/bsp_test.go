package bsp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"psgl/internal/graph"
)

// wint is the suite's small wire message: an int that can cross a TCP
// transport. Tests that stay in-process keep plain int, which pins that the
// in-process transport needs no codec.
type wint int32

func (m *wint) AppendWire(dst []byte) []byte {
	return binary.LittleEndian.AppendUint32(dst, uint32(*m))
}

func (m *wint) DecodeWire(src []byte) ([]byte, error) {
	if len(src) < 4 {
		return nil, fmt.Errorf("wint: truncated (%d bytes)", len(src))
	}
	*m = wint(binary.LittleEndian.Uint32(src))
	return src[4:], nil
}

// echoProgram floods: Init seeds one message per owned vertex carrying a TTL;
// Process re-sends with TTL-1 until it reaches zero, counting deliveries.
type echoProgram struct {
	vertices int
	ttl      int
	part     graph.Partition
	mu       sync.Mutex
	seen     map[graph.VertexID]int
}

func (p *echoProgram) Init(ctx *Context[wint]) {
	for v := 0; v < p.vertices; v++ {
		if p.part.Owner(graph.VertexID(v)) == ctx.Worker() {
			ctx.Send(graph.VertexID(v), wint(p.ttl))
		}
	}
}

func (p *echoProgram) Process(ctx *Context[wint], env Envelope[wint]) {
	ctx.AddCounter("delivered", 1)
	p.mu.Lock()
	p.seen[env.Dest]++
	p.mu.Unlock()
	if env.Msg > 0 {
		ctx.Send((env.Dest+1)%graph.VertexID(p.vertices), env.Msg-1)
	}
}

func newEcho(vertices, ttl, workers int) (*echoProgram, Config) {
	part := graph.NewPartition(workers, 7)
	prog := &echoProgram{vertices: vertices, ttl: ttl, part: part, seen: map[graph.VertexID]int{}}
	cfg := Config{Workers: workers, Owner: func(v graph.VertexID) int { return part.Owner(v) }}
	return prog, cfg
}

func TestRunDeliversAllMessages(t *testing.T) {
	prog, cfg := newEcho(100, 5, 4)
	stats, err := Run[wint](cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	// Each of 100 chains delivers ttl+1 = 6 messages.
	if stats.Counters["delivered"] != 600 {
		t.Fatalf("delivered = %d, want 600", stats.Counters["delivered"])
	}
	if stats.MessagesTotal != 600 {
		t.Fatalf("MessagesTotal = %d, want 600", stats.MessagesTotal)
	}
	// Init + 5 forwarding supersteps + final empty-producing superstep.
	if stats.Supersteps != 7 {
		t.Fatalf("Supersteps = %d, want 7", stats.Supersteps)
	}
}

func TestRunRoutesToOwner(t *testing.T) {
	// Process must only see messages whose Dest the worker owns.
	workers := 5
	part := graph.NewPartition(workers, 3)
	var mu sync.Mutex
	misrouted := 0
	prog := &funcProgram[int]{
		init: func(ctx *Context[int]) {
			if ctx.Worker() == 0 {
				for v := 0; v < 200; v++ {
					ctx.Send(graph.VertexID(v), 0)
				}
			}
		},
		process: func(ctx *Context[int], env Envelope[int]) {
			if part.Owner(env.Dest) != ctx.Worker() {
				mu.Lock()
				misrouted++
				mu.Unlock()
			}
		},
	}
	cfg := Config{Workers: workers, Owner: func(v graph.VertexID) int { return part.Owner(v) }}
	if _, err := Run[int](cfg, prog); err != nil {
		t.Fatal(err)
	}
	if misrouted != 0 {
		t.Fatalf("%d messages misrouted", misrouted)
	}
}

type funcProgram[M any] struct {
	init    func(*Context[M])
	process func(*Context[M], Envelope[M])
}

func (p *funcProgram[M]) Init(ctx *Context[M]) { p.init(ctx) }
func (p *funcProgram[M]) Process(ctx *Context[M], env Envelope[M]) {
	p.process(ctx, env)
}

func TestRunEmptyProgramTerminates(t *testing.T) {
	prog := &funcProgram[int]{
		init:    func(*Context[int]) {},
		process: func(*Context[int], Envelope[int]) {},
	}
	cfg := Config{Workers: 3, Owner: func(graph.VertexID) int { return 0 }}
	stats, err := Run[int](cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Supersteps != 1 || stats.MessagesTotal != 0 {
		t.Fatalf("empty program: steps=%d msgs=%d", stats.Supersteps, stats.MessagesTotal)
	}
}

func TestAbortStopsRun(t *testing.T) {
	boom := errors.New("boom")
	prog := &funcProgram[int]{
		init: func(ctx *Context[int]) { ctx.Send(0, 1) },
		process: func(ctx *Context[int], env Envelope[int]) {
			ctx.Abort(boom)
			ctx.Send(0, 1) // keeps producing; abort must still win
		},
	}
	cfg := Config{Workers: 2, Owner: func(graph.VertexID) int { return 0 }}
	_, err := Run[int](cfg, prog)
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted", err)
	}
}

func TestConfigValidation(t *testing.T) {
	// One validation, in the shell both loops share: every rejected Config is
	// rejected before anything runs, whichever loop it selects.
	owner := func(graph.VertexID) int { return 0 }
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no workers", Config{Workers: 0, Owner: owner}},
		{"nil owner", Config{Workers: 1}},
		{"checkpoint cadence without store", Config{Workers: 1, Owner: owner, CheckpointEvery: 1}},
		{"async checkpoint cadence without store", Config{Workers: 2, Owner: owner, AsyncExchange: true, CheckpointEvery: 1}},
	}
	ran := false
	prog := &funcProgram[int]{init: func(*Context[int]) { ran = true }, process: func(*Context[int], Envelope[int]) {}}
	for _, tc := range cases {
		if _, err := Run[int](tc.cfg, prog); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if ran {
		t.Error("a rejected Config still ran the program")
	}
}

func TestStatsShape(t *testing.T) {
	prog, cfg := newEcho(50, 3, 4)
	stats, err := Run[wint](cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.WorkerTime) != 4 || len(stats.WorkerMessages) != 4 {
		t.Fatal("per-worker stats wrong length")
	}
	if len(stats.PerStepWorkerTime) != stats.Supersteps {
		t.Fatalf("PerStepWorkerTime has %d steps, want %d", len(stats.PerStepWorkerTime), stats.Supersteps)
	}
	var total int64
	for _, m := range stats.WorkerMessages {
		total += m
	}
	if total != stats.MessagesTotal {
		t.Fatalf("worker message sum %d != total %d", total, stats.MessagesTotal)
	}
	if stats.SimulatedMakespan() < 0 {
		t.Fatal("negative makespan")
	}
	if len(stats.PerStepMessages) != stats.Supersteps {
		t.Fatal("PerStepMessages length mismatch")
	}
}

func TestSimulatedMakespanIsSumOfStepMaxima(t *testing.T) {
	stats := &RunStats{
		PerStepWorkerTime: [][]time.Duration{
			{3 * time.Millisecond, 7 * time.Millisecond},
			{10 * time.Millisecond, 1 * time.Millisecond},
		},
	}
	if got := stats.SimulatedMakespan(); got != 17*time.Millisecond {
		t.Fatalf("SimulatedMakespan = %v, want 17ms", got)
	}
}

func TestTCPExchangeMatchesLocal(t *testing.T) {
	runWith := func(factory ExchangeFactory) *RunStats {
		prog, cfg := newEcho(60, 4, 3)
		cfg.Exchange = factory
		stats, err := Run[wint](cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	local := runWith(nil)
	tcp := runWith(NewTCPExchangeFactory())
	if local.MessagesTotal != tcp.MessagesTotal {
		t.Fatalf("message totals differ: local=%d tcp=%d", local.MessagesTotal, tcp.MessagesTotal)
	}
	if local.Supersteps != tcp.Supersteps {
		t.Fatalf("supersteps differ: local=%d tcp=%d", local.Supersteps, tcp.Supersteps)
	}
	if local.Counters["delivered"] != tcp.Counters["delivered"] {
		t.Fatalf("delivered differ: local=%d tcp=%d",
			local.Counters["delivered"], tcp.Counters["delivered"])
	}
}

func TestTCPExchangeSingleWorker(t *testing.T) {
	prog, cfg := newEcho(20, 2, 1)
	cfg.Exchange = NewTCPExchangeFactory()
	stats, err := Run[wint](cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Counters["delivered"] != 60 {
		t.Fatalf("delivered = %d, want 60", stats.Counters["delivered"])
	}
}

func TestTCPRejectsNonWireMessage(t *testing.T) {
	// gob no longer stands in for a missing codec: a message type without
	// WireMessage over a TCP factory fails at setup, in both policies.
	prog := &funcProgram[int]{init: func(*Context[int]) {}, process: func(*Context[int], Envelope[int]) {}}
	for _, async := range []bool{false, true} {
		cfg := Config{Workers: 2, Owner: func(graph.VertexID) int { return 0 }, Exchange: NewTCPExchangeFactory(), AsyncExchange: async}
		_, err := Run[int](cfg, prog)
		if err == nil || !strings.Contains(err.Error(), "does not implement WireMessage") {
			t.Errorf("async=%v: err = %v, want the missing-codec setup error", async, err)
		}
	}
}

func BenchmarkLocalExchange(b *testing.B) {
	for i := 0; i < b.N; i++ {
		prog, cfg := newEcho(500, 3, 4)
		if _, err := Run[wint](cfg, prog); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTCPExchange(b *testing.B) {
	for i := 0; i < b.N; i++ {
		prog, cfg := newEcho(500, 3, 4)
		cfg.Exchange = NewTCPExchangeFactory()
		if _, err := Run[wint](cfg, prog); err != nil {
			b.Fatal(err)
		}
	}
}
