package bsp

import (
	"context"
	"errors"
	"net"
	"runtime"
	"testing"
	"time"

	"psgl/internal/graph"
	"psgl/internal/obs"
)

// waitGoroutinesBack polls until the goroutine count drops back to at most
// base (plus slack for runtime noise), failing the test otherwise.
func waitGoroutinesBack(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked: %d now vs %d at baseline\n%s",
		runtime.NumGoroutine(), base, buf[:n])
}

// TestTCPSetupCancelStopsAcceptLoopWithoutLeaks: cancelling the run context
// mid-setup (one mesh connection black-holed, so setup can never complete)
// must abort the Accept loop promptly — well before the setup deadline —
// count a setup abort in obs, and leave no goroutine behind.
func TestTCPSetupCancelStopsAcceptLoopWithoutLeaks(t *testing.T) {
	// A decoy listener that never participates in the handshake, so the
	// mesh stays one connection short forever.
	decoy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer decoy.Close()
	testDialHook = func(src, dst int, addr string, timeout time.Duration) (net.Conn, error) {
		if src == 0 && dst == 1 {
			return net.DialTimeout("tcp", decoy.Addr().String(), timeout)
		}
		return net.DialTimeout("tcp", addr, timeout)
	}
	defer func() { testDialHook = nil }()

	base := runtime.NumGoroutine()
	o := obs.New(nil)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()

	start := time.Now()
	_, err = newTestTCP(ctx, 3, TCPConfig{SetupTimeout: 60 * time.Second}, o)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("canceled setup should error")
	}
	if ctx.Err() == nil {
		t.Fatal("test bug: context not canceled")
	}
	if elapsed > 20*time.Second {
		t.Fatalf("setup took %v after cancel; must tear down promptly, not wait out the 60s deadline", elapsed)
	}
	if got := o.Snapshot().SetupAborts; got != 1 {
		t.Fatalf("setup_aborts = %d, want 1", got)
	}
	waitGoroutinesBack(t, base)
}

// TestTCPSetupPreCanceledContextFailsFast: a context already canceled before
// setup starts must fail immediately without opening a listener.
func TestTCPSetupPreCanceledContextFailsFast(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	base := runtime.NumGoroutine()
	start := time.Now()
	_, err := newTestTCP(ctx, 4, TCPConfig{}, nil)
	if err == nil {
		t.Fatal("pre-canceled setup should error")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("pre-canceled setup took %v", elapsed)
	}
	waitGoroutinesBack(t, base)
}

// TestRunLeavesNoGoroutines: however a run ends — clean in either policy,
// aborted, ended by its context's deadline, or recovered from a checkpoint
// after a lost frame — in-process and over TCP, no worker, coordinator, setup
// watchdog or reader goroutine survives RunContext. Close-without-traffic and
// double Close are rows of TestTransportConformance.
func TestRunLeavesNoGoroutines(t *testing.T) {
	boom := errors.New("boom")
	aborting := func() *funcProgram[wint] {
		return &funcProgram[wint]{
			init: func(ctx *Context[wint]) { ctx.Send(graph.VertexID(ctx.Worker()), 3) },
			process: func(ctx *Context[wint], env Envelope[wint]) {
				if env.Msg == 1 {
					ctx.Abort(boom)
				}
				ctx.Send(env.Dest+1, env.Msg-1)
			},
		}
	}
	slow := func() *funcProgram[wint] {
		return &funcProgram[wint]{
			init: func(ctx *Context[wint]) {
				for i := 0; i < 2000; i++ {
					ctx.Send(graph.VertexID(i), 1)
				}
			},
			process: func(ctx *Context[wint], env Envelope[wint]) {
				time.Sleep(time.Millisecond)
				ctx.Send(env.Dest, 1)
			},
		}
	}
	owner := func(v graph.VertexID) int { return int(v) % 3 }
	cases := []struct {
		name string
		run  func(exchange func() ExchangeFactory) error
		want error
	}{
		{"clean", func(exchange func() ExchangeFactory) error {
			prog, cfg := newEcho(30, 3, 3)
			cfg.Exchange = exchange()
			_, err := Run[wint](cfg, prog)
			return err
		}, nil},
		{"clean async", func(exchange func() ExchangeFactory) error {
			prog, cfg := newEcho(30, 3, 3)
			cfg.Exchange, cfg.AsyncExchange = exchange(), true
			_, err := Run[wint](cfg, prog)
			return err
		}, nil},
		{"aborted", func(exchange func() ExchangeFactory) error {
			_, err := Run[wint](Config{Workers: 3, Owner: owner, Exchange: exchange()}, aborting())
			return err
		}, ErrAborted},
		{"deadline", func(exchange func() ExchangeFactory) error {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
			defer cancel()
			_, err := RunContext[wint](ctx, Config{Workers: 3, Owner: owner, Exchange: exchange()}, slow())
			return err
		}, context.DeadlineExceeded},
		{"resumed", func(exchange func() ExchangeFactory) error {
			prog, cfg := newEcho(30, 5, 3)
			cfg.Exchange = exchange()
			store := stopAfterSave(t, cfg, prog, 2)
			prog, cfg = newEcho(30, 5, 3)
			cfg.Exchange, cfg.ResumeFrom = exchange(), store
			_, err := Run[wint](cfg, prog)
			return err
		}, nil},
	}
	exchanges := map[string]func() ExchangeFactory{
		"local": func() ExchangeFactory { return nil },
		"tcp":   func() ExchangeFactory { return NewTCPExchangeFactory() },
	}
	for _, tc := range cases {
		for name, exchange := range exchanges {
			base := runtime.NumGoroutine()
			if err := tc.run(exchange); !errors.Is(err, tc.want) {
				t.Fatalf("%s/%s: err = %v, want %v", tc.name, name, err, tc.want)
			}
			waitGoroutinesBack(t, base)
		}
	}
}
