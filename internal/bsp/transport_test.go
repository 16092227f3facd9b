package bsp

// The transport conformance battery: one table over every transport stack
// the resolver can build — {in-process, TCP} × {flat, compressed} —
// asserting the contract the run loop is written against, instead of one
// copy of each check per implementation.

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

func TestTransportConformance(t *testing.T) {
	const k = 3
	inners := map[string]func() ExchangeFactory{
		"local": func() ExchangeFactory { return nil },
		"tcp":   func() ExchangeFactory { return NewTCPExchangeFactory() },
	}
	for innerName, mkInner := range inners {
		for _, compress := range []bool{false, true} {
			name := fmt.Sprintf("%s/compress=%v", innerName, compress)
			t.Run(name, func(t *testing.T) {
				base := runtime.NumGoroutine()
				rec := &recorder[groupMsg]{compress: compress, wire: innerName == "tcp", acks: map[int]int{}}
				cfg := &Config{Workers: k, CompressFrames: compress}
				tr, err := newTransport(context.Background(), mkInner(), cfg, rec.hooks(t))
				if err != nil {
					t.Fatal(err)
				}

				var sent []Envelope[groupMsg]
				sends := map[int]int{}
				for ord := 1; ord <= 4; ord++ {
					for src := 0; src < k; src++ {
						for dst := 0; dst < k; dst++ {
							// Empty, flat-sized, one-chunk and multi-chunk batches.
							n := []int{0, compressMinBatch - 1, 40, compressedChunk + 90}[(ord+src+dst)%4]
							batch := groupTestBatch(n)
							for i := range batch {
								batch[i].Msg.Seq += uint32(1000 * (ord*100 + src*10 + dst))
							}
							// As the 37-envelope chunks a sender might have filled.
							spent, err := tr.Send(context.Background(), src, dst, ord, splitChunks(batch, 37))
							if err != nil {
								t.Fatalf("Send %d->%d ord %d: %v", src, dst, ord, err)
							}
							// Done with the chunks exactly when it encoded them.
							if encoded := rec.wire || compress && n >= compressMinBatch; n > 0 && spent != encoded {
								t.Fatalf("Send %d->%d ord %d of %d envelopes: spent %v, encoded %v", src, dst, ord, n, spent, encoded)
							}
							sent = append(sent, batch...)
							sends[src]++
						}
					}
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
				// per Send, and exactly the batches sent delivered.
				if !reflect.DeepEqual(rec.acks, sends) {
					t.Fatalf("acks per source %v, Sends %v", rec.acks, sends)
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

// tornConn passes the mesh handshake and then pass frames through, and tears
// the next write: half the frame reaches the peer and the call fails.
type tornConn struct {
	net.Conn
	pass   int
	writes int
}

func (c *tornConn) Write(p []byte) (int, error) {
	if c.writes++; c.writes != c.pass+2 {
		return c.Conn.Write(p)
	}
	n, _ := c.Conn.Write(p[:len(p)/2])
	return n, errors.New("injected torn write")
}

// TestTCPTornWriteKillsThePair: a write that fails mid-frame must not be
// followed by another frame on the same stream (the reader would mis-frame
// it). The pair dies instead: the re-issued Send fails, nothing of either is
// delivered or acked, and the failed Send's error is the one report — the
// reader, meeting the truncation, exits and reports nothing, so a run cannot
// end with its EOF in place of the write's error.
func TestTCPTornWriteKillsThePair(t *testing.T) {
	testDialHook = func(src, dst int, addr string, timeout time.Duration) (net.Conn, error) {
		conn, err := net.DialTimeout("tcp", addr, timeout)
		if err == nil && src == 0 && dst == 1 {
			conn = &tornConn{Conn: conn, pass: 1}
		}
		return conn, err
	}
	defer func() { testDialHook = nil }()
	base := meshReaders()
	rec := &recorder[wint]{wire: true, acks: map[int]int{}}
	tr, err := newTransport(context.Background(), NewTCPExchangeFactory(), &Config{Workers: 2}, rec.hooks(t))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	batch := [][]Envelope[wint]{{{Dest: 1, Msg: 7}, {Dest: 3, Msg: 9}}}
	// One frame each way, delivered and acked: both pairs' readers run.
	for src := 0; src < 2; src++ {
		if _, err := tr.Send(context.Background(), src, 1-src, 1, batch); err != nil {
			t.Fatal(err)
		}
	}
	acked := func() int {
		rec.mu.Lock()
		defer rec.mu.Unlock()
		return rec.acks[0] + rec.acks[1]
	}
	waitUntil(t, "both frames acked", func() bool { return acked() == 2 })
	if n := meshReaders() - base; n != 2 {
		t.Fatalf("%d readers running, want 2", n)
	}
	if _, err := tr.Send(context.Background(), 0, 1, 2, batch); err == nil {
		t.Fatal("torn write reported success")
	}
	if _, err := tr.Send(context.Background(), 0, 1, 3, batch); err == nil {
		t.Fatal("Send behind a torn frame succeeded")
	}
	waitUntil(t, "the torn pair's reader exited", func() bool { return meshReaders()-base == 1 })
	tr.Close()
	if len(rec.fatals) != 0 || len(rec.delivered) != 4 || rec.acks[0] != 1 || rec.acks[1] != 1 {
		t.Fatalf("fatals %v, delivered %v, acks %v; want the two good frames and nothing else", rec.fatals, rec.delivered, rec.acks)
	}
}

// meshReaders counts the running TCP mesh reader goroutines.
func meshReaders() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), ").readLoop(")
}

// waitUntil polls cond for up to 10 s and fails the test, naming what, if it
// never holds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting: %s", what)
		}
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
