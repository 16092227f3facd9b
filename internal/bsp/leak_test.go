package bsp

import (
	"context"
	"net"
	"runtime"
	"testing"
	"time"

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

// TestTCPSetupCompletesThenRunLeavesNoGoroutines: the happy path — a full
// mesh setup, a run over it in each loop, and the transport's Close at the end
// of the attempt must return to the goroutine baseline (neither the setup
// watchdog nor a reader goroutine may leak). Close-without-traffic and double
// Close are rows of TestTransportConformance.
func TestTCPSetupCompletesThenRunLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, async := range []bool{false, true} {
		prog, cfg := newEcho(30, 3, 3)
		cfg.Exchange = NewTCPExchangeFactory()
		cfg.AsyncExchange = async
		if _, err := Run[wint](cfg, prog); err != nil {
			t.Fatal(err)
		}
	}
	waitGoroutinesBack(t, base)
}
