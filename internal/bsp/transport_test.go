package bsp

// The transport conformance battery: one table over every transport stack
// the resolver can build — {in-process, TCP} × {flat, compressed} × {clean,
// fail, delay} — asserting the contract the run loop is written against,
// instead of one copy of each check per implementation.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"psgl/internal/obs"
)

// splitChunks cuts batch into chunks of at most size envelopes.
func splitChunks[M any](batch []Envelope[M], size int) (chunks [][]Envelope[M]) {
	for ; len(batch) > size; batch = batch[size:] {
		chunks = append(chunks, batch[:size])
	}
	if len(batch) > 0 {
		chunks = append(chunks, batch)
	}
	return chunks
}

// recorder is a loop stand-in: it keeps everything the hooks were handed.
type recorder[M any] struct {
	compress   bool // the codec under test: batches worth coding must arrive front coded
	wire       bool // the transport encodes every batch (TCP): nothing arrives as chunks
	mu         sync.Mutex
	delivered  []Envelope[M]
	frames     int // compressed chunks received still encoded
	flatFrames int // flat frames received still encoded
	acks       map[int]int
	fatals     []error
}

func (r *recorder[M]) hooks(t *testing.T) hooks[M] {
	return hooks[M]{
		deliver: func(_, _, _ int, in Inbox[M]) {
			r.mu.Lock()
			defer r.mu.Unlock()
			flat := chunksLen(in.Chunks)
			r.delivered = append(r.delivered, flatten(in.Chunks)...)
			// One Send arrives as chunks or as frames, never mixed: chunks only
			// from an in-process transport, and only a batch the compressed
			// codec would not code.
			if flat > 0 && (r.wire || len(in.Frames) > 0 || r.compress && flat >= compressMinBatch) {
				t.Errorf("wire=%v compress=%v delivered %d envelopes as chunks beside %d frames", r.wire, r.compress, flat, len(in.Frames))
			}
			for _, fp := range in.Frames {
				_, _, batch, err := DecodeFrame[M](fp)
				if err != nil {
					t.Errorf("delivered an undecodable frame: %v", err)
				}
				r.delivered = append(r.delivered, batch...)
				if !framePayloadIsCompressed(fp) {
					// Only TCP encodes flat: one frame for the whole Send, and under
					// the compressed codec only a batch too small to code.
					if !r.wire || len(in.Frames) != 1 || r.compress && len(batch) >= compressMinBatch {
						t.Errorf("wire=%v compress=%v delivered a flat frame of %d envelopes among %d frames", r.wire, r.compress, len(batch), len(in.Frames))
					}
					r.flatFrames++
					continue
				}
				if !r.compress {
					t.Errorf("flat codec delivered a compressed frame")
				}
				if len(batch) > compressedChunk {
					t.Errorf("chunk of %d envelopes exceeds the %d bound", len(batch), compressedChunk)
				}
				r.frames++
			}
		},
		ack: func(src int) {
			r.mu.Lock()
			r.acks[src]++
			r.mu.Unlock()
		},
		fatal: func(err error) {
			r.mu.Lock()
			r.fatals = append(r.fatals, err)
			r.mu.Unlock()
		},
	}
}

func (r *recorder[M]) deliveredCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.delivered)
}

func (r *recorder[M]) ackTotal() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, a := range r.acks {
		n += a
	}
	return n
}

// scheduled is faulttest.Schedule for this package's own tests, which cannot
// import it (faulttest imports bsp): the schedule's factory, failing t at its
// end unless every fault fired.
func scheduled(t testing.TB, inner ExchangeFactory, faults ...StepFault) *ScheduledFaultFactory {
	t.Helper()
	f := NewScheduledFaultExchangeFactory(inner, faults)
	t.Cleanup(func() {
		if n := f.Fired(); n != len(faults) {
			t.Errorf("%d of the %d scheduled faults fired: %+v", n, len(faults), faults)
		}
	})
	return f
}

func TestTransportConformance(t *testing.T) {
	const k = 3
	inners := map[string]func() ExchangeFactory{
		"local": func() ExchangeFactory { return nil },
		"tcp":   func() ExchangeFactory { return NewTCPExchangeFactory() },
	}
	// The fault column: each row's schedule, and how many Sends it fails.
	faults := map[string]struct {
		schedule []StepFault
		failures int
	}{
		"clean": {},
		"fail":  {[]StepFault{{Step: 2, Kind: StepFaultFail}, {Step: 2, Kind: StepFaultFail}, {Step: 3, Kind: StepFaultFail}}, 3},
		"delay": {[]StepFault{{Step: 2, Kind: StepFaultDelay, Delay: time.Millisecond}, {Step: 3, Kind: StepFaultDelay, Delay: time.Millisecond}}, 0},
	}
	for innerName, mkInner := range inners {
		for _, compress := range []bool{false, true} {
			for faultName, row := range faults {
				name := fmt.Sprintf("%s/compress=%v/%s", innerName, compress, faultName)
				t.Run(name, func(t *testing.T) {
					base := runtime.NumGoroutine()
					factory := mkInner()
					if row.schedule != nil {
						factory = scheduled(t, factory, row.schedule...)
					}
					rec := &recorder[groupMsg]{compress: compress, wire: innerName == "tcp", acks: map[int]int{}}
					cfg := &Config{Workers: k, CompressFrames: compress}
					// No faultPoint hook: every frame is a fault opportunity, so
					// the injected failures land on arbitrary pairs.
					tr, err := newTransport(context.Background(), factory, cfg, rec.hooks(t))
					if err != nil {
						t.Fatal(err)
					}

					var sent []Envelope[groupMsg]
					succeeded := map[int]int{}
					failures := 0
					for ord := 1; ord <= 4; ord++ {
						for src := 0; src < k; src++ {
							for dst := 0; dst < k; dst++ {
								// Empty, flat-sized, one-chunk and multi-chunk batches.
								n := []int{0, compressMinBatch - 1, 40, compressedChunk + 90}[(ord+src+dst)%4]
								batch := groupTestBatch(n)
								for i := range batch {
									batch[i].Msg.Seq += uint32(1000 * (ord*100 + src*10 + dst))
								}
								for try := 0; ; try++ {
									before := rec.deliveredCount()
									// As the 37-envelope chunks a sender might have filled.
									spent, err := tr.Send(context.Background(), src, dst, ord, splitChunks(batch, 37))
									if err == nil {
										// Done with the chunks exactly when it encoded them.
										if encoded := rec.wire || compress && n >= compressMinBatch; n > 0 && spent != encoded {
											t.Fatalf("Send %d->%d ord %d of %d envelopes: spent %v, encoded %v", src, dst, ord, n, spent, encoded)
										}
										break
									}
									failures++
									if !errors.Is(err, ErrInjectedFault) {
										t.Fatalf("Send %d->%d ord %d: %v", src, dst, ord, err)
									}
									// Faults fire before the inner transport sees the
									// batch: nothing of it may have been delivered.
									if innerName == "local" && rec.deliveredCount() != before {
										t.Fatalf("failed Send %d->%d ord %d delivered envelopes", src, dst, ord)
									}
									if try > 50 {
										t.Fatalf("Send %d->%d ord %d still failing after %d tries", src, dst, ord, try)
									}
								}
								sent = append(sent, batch...)
								succeeded[src]++
							}
						}
					}
					if failures != row.failures {
						t.Fatalf("%d Sends failed, want %d", failures, row.failures)
					}

					// TCP delivers from reader goroutines: wait for the acks.
					deadline := time.Now().Add(10 * time.Second)
					for rec.ackTotal() < 4*k*k && time.Now().Before(deadline) {
						time.Sleep(time.Millisecond)
					}
					if err := tr.Close(); err != nil && innerName == "local" {
						t.Fatalf("Close: %v", err)
					}
					tr.Close() // idempotent
					waitGoroutinesBack(t, base)

					// After Close no hook can fire, so the books are final: one ack
					// per successful Send, and exactly the successful batches
					// delivered — a failed Send delivered and acked nothing.
					if !reflect.DeepEqual(rec.acks, succeeded) {
						t.Fatalf("acks per source %v, successful Sends %v", rec.acks, succeeded)
					}
					sameMultiset(t, rec.delivered, sent)
					if len(rec.fatals) != 0 {
						t.Fatalf("fatal hook fired: %v", rec.fatals)
					}
					if compress != (rec.frames > 0) {
						t.Fatalf("compress=%v: %d compressed frames delivered", compress, rec.frames)
					}
					if rec.wire != (rec.flatFrames > 0) {
						t.Fatalf("%s: %d flat frames delivered still encoded", innerName, rec.flatFrames)
					}
				})
			}
		}
	}
}

// tornConn passes the mesh handshake through, then tears the next write: half
// the frame reaches the peer and the call fails.
type tornConn struct {
	net.Conn
	writes int
}

func (c *tornConn) Write(p []byte) (int, error) {
	if c.writes++; c.writes != 2 {
		return c.Conn.Write(p)
	}
	n, _ := c.Conn.Write(p[:len(p)/2])
	return n, errors.New("injected torn write")
}

// TestTCPTornWriteKillsThePair: a write that fails mid-frame must not be
// followed by another frame on the same stream (the reader would mis-frame
// it). The pair dies instead: the re-issued Send fails, nothing of either is
// delivered or acked, and the reader reports the truncation.
func TestTCPTornWriteKillsThePair(t *testing.T) {
	testDialHook = func(src, dst int, addr string, timeout time.Duration) (net.Conn, error) {
		conn, err := net.DialTimeout("tcp", addr, timeout)
		if err == nil && src == 0 && dst == 1 {
			conn = &tornConn{Conn: conn}
		}
		return conn, err
	}
	defer func() { testDialHook = nil }()
	rec := &recorder[wint]{wire: true, acks: map[int]int{}}
	tr, err := newTransport(context.Background(), NewTCPExchangeFactory(), &Config{Workers: 2}, rec.hooks(t))
	if err != nil {
		t.Fatal(err)
	}
	batch := [][]Envelope[wint]{{{Dest: 1, Msg: 7}, {Dest: 3, Msg: 9}}}
	if _, err := tr.Send(context.Background(), 0, 1, 1, batch); err == nil {
		t.Fatal("torn write reported success")
	}
	if _, err := tr.Send(context.Background(), 0, 1, 1, batch); err == nil {
		t.Fatal("Send behind a torn frame succeeded")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		rec.mu.Lock()
		fatals := len(rec.fatals)
		rec.mu.Unlock()
		if fatals > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	tr.Close()
	if len(rec.fatals) != 1 || len(rec.delivered) != 0 || len(rec.acks) != 0 {
		t.Fatalf("fatals %v, delivered %v, acks %v; want one truncation report and nothing else", rec.fatals, rec.delivered, rec.acks)
	}
}

// blackholeConn passes the mesh handshake through and swallows every frame
// written after it: the write succeeds, the peer never sees a byte.
type blackholeConn struct {
	net.Conn
	handshaken bool
}

func (c *blackholeConn) Write(p []byte) (int, error) {
	if !c.handshaken {
		c.handshaken = true
		return c.Conn.Write(p)
	}
	return len(p), nil
}

// TestBlackholedPeerEndsInDeadlineError: a peer that swallows frames must
// end the run in a deadline error after FrameTimeout — never a hang — in the
// either policy: the credit the swallowed frame was sent under never returns.
func TestBlackholedPeerEndsInDeadlineError(t *testing.T) {
	testDialHook = func(src, dst int, addr string, timeout time.Duration) (net.Conn, error) {
		conn, err := net.DialTimeout("tcp", addr, timeout)
		if err == nil && src == 0 && dst == 1 {
			conn = &blackholeConn{Conn: conn}
		}
		return conn, err
	}
	defer func() { testDialHook = nil }()
	for _, async := range []bool{false, true} {
		prog, cfg := newEcho(40, 3, 2)
		cfg.Exchange = NewTCPExchangeFactoryWithConfig(TCPConfig{FrameTimeout: 200 * time.Millisecond})
		cfg.AsyncExchange = async
		start := time.Now()
		_, err := Run[wint](cfg, prog)
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("async=%v: err = %v, want a deadline error", async, err)
		}
		if elapsed := time.Since(start); elapsed > 10*time.Second {
			t.Errorf("async=%v: black-holed run took %v", async, elapsed)
		}
	}
}

// --- Hardened TCP setup and deadlines --------------------------------------

func newTestTCP(ctx context.Context, workers int, tc TCPConfig, o *obs.Observer) (transport[wint], error) {
	h := hooks[wint]{deliver: func(_, _, _ int, _ Inbox[wint]) {}, ack: func(int) {}, fatal: func(error) {}}
	return newTransport(ctx, NewTCPExchangeFactoryWithConfig(tc), &Config{Workers: workers, Observer: o}, h)
}

func TestTCPSetupFailedDialDoesNotDeadlock(t *testing.T) {
	// Regression: a failed dial used to leave the Accept goroutine waiting
	// forever for the full mesh, deadlocking setup. It must now fail fast —
	// well before the (generous) setup deadline.
	testDialHook = func(src, dst int, addr string, timeout time.Duration) (net.Conn, error) {
		if src == 1 && dst == 0 {
			return nil, fmt.Errorf("injected dial failure")
		}
		return net.DialTimeout("tcp", addr, timeout)
	}
	defer func() { testDialHook = nil }()

	start := time.Now()
	_, err := newTestTCP(context.Background(), 3, TCPConfig{SetupTimeout: 60 * time.Second}, nil)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("setup with a failed dial should error")
	}
	if want := "dial 1->0"; !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want the root-cause dial error (%q)", err, want)
	}
	if elapsed > 20*time.Second {
		t.Fatalf("setup took %v; a failed dial must fail fast, not wait for the deadline", elapsed)
	}
}

func TestTCPSetupTimesOutOnSilentPeer(t *testing.T) {
	// One pair dials a black hole (a listener that never reaches the
	// transport), so one mesh connection never arrives: the Accept loop must
	// give up at the setup deadline instead of blocking forever.
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

	start := time.Now()
	_, err = newTestTCP(context.Background(), 2, TCPConfig{SetupTimeout: 2 * time.Second}, nil)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("setup with a silent peer should time out")
	}
	if elapsed > 30*time.Second {
		t.Fatalf("setup took %v, want ~the 2s deadline", elapsed)
	}
}

// pastDeadlineCtx reports an already-expired deadline without being Done,
// forcing the frame-deadline plumbing (not the early ctx.Err check) to trip.
type pastDeadlineCtx struct{ context.Context }

func (pastDeadlineCtx) Deadline() (time.Time, bool) {
	return time.Now().Add(-time.Second), true
}

func TestTCPSendHonorsContextDeadlineOnFrames(t *testing.T) {
	tr, err := newTestTCP(context.Background(), 2, TCPConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	_, err = tr.Send(pastDeadlineCtx{context.Background()}, 0, 1, 0, [][]Envelope[wint]{{{Dest: 1, Msg: 42}}})
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want os.ErrDeadlineExceeded", err)
	}
}
