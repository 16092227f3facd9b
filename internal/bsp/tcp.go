package bsp

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"psgl/internal/obs"
)

// TCPConfig tunes the hardened loopback TCP transport. The zero value gets
// conservative defaults; every timeout exists so that a partial failure
// surfaces as an error instead of a hang.
type TCPConfig struct {
	// DialTimeout bounds each mesh dial. 0 means 5s.
	DialTimeout time.Duration
	// SetupTimeout bounds the whole K×K mesh setup — accepts plus
	// handshakes. A failed dial additionally closes the listener so setup
	// fails fast rather than waiting the timeout out. 0 means 15s.
	SetupTimeout time.Duration
	// FrameTimeout is the per-frame deadline: a Send must be written, and
	// what it wrote must have arrived in full at the receiving worker, this
	// long after it started; a context with an earlier deadline wins.
	// 0 means 30s.
	FrameTimeout time.Duration
}

func (c TCPConfig) withDefaults() TCPConfig {
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.SetupTimeout <= 0 {
		c.SetupTimeout = 15 * time.Second
	}
	if c.FrameTimeout <= 0 {
		c.FrameTimeout = 30 * time.Second
	}
	return c
}

// NewTCPExchangeFactory returns an ExchangeFactory that routes every
// inter-worker message batch through loopback TCP connections between the
// worker goroutines of this one process. It distributes nothing — every
// worker reads the same in-memory graph — and is kept because the list-wire
// benchmark measures the encode, socket and decode path it adds, until the
// TCP exchange is retired. Messages between a worker and itself skip the
// network.
//
// The message type's pointer must implement WireMessage (the engine's Gpsi
// does): batches travel as compact length-prefixed binary frames with pooled
// buffers, and a type without the codec fails the run at setup. Setup, the
// handshakes, and every frame are bounded by TCPConfig deadlines (defaults
// here); a mesh failure therefore surfaces as an error that ends the run.
func NewTCPExchangeFactory() ExchangeFactory { return tcpFactory{} }

// NewTCPExchangeFactoryWithConfig is NewTCPExchangeFactory with explicit
// timeouts.
func NewTCPExchangeFactoryWithConfig(cfg TCPConfig) ExchangeFactory {
	return tcpFactory{cfg: cfg}
}

type tcpFactory struct{ cfg TCPConfig }

func (f tcpFactory) tcpConfig() TCPConfig { return f.cfg }

// pairConn is the connection of one ordered (src, dst) pair: src's goroutine
// is the only writer of out, one reader goroutine the only reader of in, so
// neither side needs a lock for the bytes. mu guards only the read-deadline
// bookkeeping the two share. torn is set, before out is closed, by a Send
// whose write failed mid-frame: that Send's error is the failure to report,
// not the truncation its reader meets.
type pairConn struct {
	out  net.Conn
	in   net.Conn
	br   *bufio.Reader
	torn atomic.Bool

	mu       sync.Mutex
	inflight int // Sends written (or being written) and not yet fully read
}

// expect arms the read side before a Send writes: an idle conn is normal
// (reads block without a deadline), but once a frame is on its way a peer
// that swallows it must end in a deadline error, not a hang.
func (p *pairConn) expect(deadline time.Time) {
	p.mu.Lock()
	if p.inflight == 0 {
		p.in.SetReadDeadline(deadline)
	}
	p.inflight++
	p.mu.Unlock()
}

// settle retires one expectation — its Send was read in full, or failed to
// write — and re-arms the deadline for the next one in flight, if any.
func (p *pairConn) settle(timeout time.Duration) {
	p.mu.Lock()
	p.inflight--
	if p.inflight == 0 {
		p.in.SetReadDeadline(time.Time{})
	} else {
		p.in.SetReadDeadline(time.Now().Add(timeout))
	}
	p.mu.Unlock()
}

// tcpTransport is the K×K loopback mesh. Each off-diagonal pair has one
// connection and one persistent reader goroutine that delivers whatever a
// Send wrote the moment it has arrived in full, and only then acks it — the
// ack is what releases the credit the frame was sent under.
type tcpTransport[M any] struct {
	cfg      TCPConfig
	obs      *obs.Observer
	h        hooks[M]
	listener net.Listener
	pairs    [][]pairConn // pairs[src][dst]; the diagonal stays empty

	closed atomic.Bool
	wg     sync.WaitGroup
}

// testDialHook, when non-nil, replaces the mesh dialer. Tests use it to
// inject dial failures and black-hole peers.
var testDialHook func(src, dst int, addr string, timeout time.Duration) (net.Conn, error)

func dialPair(ctx context.Context, src, dst int, addr string, timeout time.Duration) (net.Conn, error) {
	if testDialHook != nil {
		return testDialHook(src, dst, addr, timeout)
	}
	d := net.Dialer{Timeout: timeout}
	return d.DialContext(ctx, "tcp", addr)
}

// newTCPTransport builds the mesh and starts its reader goroutines.
func newTCPTransport[M any](ctx context.Context, workers int, cfg TCPConfig, o *obs.Observer, h hooks[M]) (*tcpTransport[M], error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("bsp: tcp exchange setup canceled: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("bsp: tcp exchange listen: %w", err)
	}
	t := &tcpTransport[M]{cfg: cfg, obs: o, h: h, listener: ln}
	t.pairs = make([][]pairConn, workers)
	for i := range t.pairs {
		t.pairs[i] = make([]pairConn, workers)
	}

	deadline := time.Now().Add(cfg.SetupTimeout)
	if tl, ok := ln.(*net.TCPListener); ok {
		// Accept can never block past the setup deadline.
		tl.SetDeadline(deadline)
	}

	nPairs := workers*workers - workers
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
	)
	// fail records the error and closes the listener, so the Accept loop
	// unblocks immediately instead of waiting forever for connections that
	// will never arrive (the pre-hardening deadlock).
	fail := func(err error) {
		mu.Lock()
		errs = append(errs, err)
		mu.Unlock()
		ln.Close()
	}

	// Watchdog: a context cancellation mid-setup closes the listener, so the
	// Accept loop below exits promptly (net.ErrClosed) instead of serving out
	// the setup deadline and leaking until then. setupDone stops the watchdog
	// itself once setup resolves either way.
	setupDone := make(chan struct{})
	defer close(setupDone)
	go func() {
		select {
		case <-ctx.Done():
			o.AddSetupAbort()
			ln.Close()
		case <-setupDone:
		}
	}()

	// Server side: accept one connection per ordered pair, identify it by
	// the handshake, and keep its reader on the destination side.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < nPairs; i++ {
			conn, err := ln.Accept()
			if err != nil {
				fail(fmt.Errorf("accept: %w", err))
				return
			}
			conn.SetReadDeadline(deadline)
			// The handshake identifying an ordered pair is 8 raw little-endian
			// bytes (src, dst as int32), so exactly it is read here and nothing
			// of the first frame behind it.
			var hs [8]byte
			if _, err := io.ReadFull(conn, hs[:]); err != nil {
				conn.Close()
				fail(fmt.Errorf("handshake decode: %w", err))
				return
			}
			src := int(int32(binary.LittleEndian.Uint32(hs[:4])))
			dst := int(int32(binary.LittleEndian.Uint32(hs[4:])))
			if src < 0 || src >= workers || dst < 0 || dst >= workers || src == dst {
				conn.Close()
				fail(fmt.Errorf("handshake names invalid pair %d->%d", src, dst))
				return
			}
			conn.SetReadDeadline(time.Time{})
			// Only this goroutine touches the in side of a pair, and only the
			// pair's dialer its out side; both are read after wg.Wait.
			p := &t.pairs[src][dst]
			if p.in != nil {
				conn.Close()
				fail(fmt.Errorf("duplicate handshake for pair %d->%d", src, dst))
				return
			}
			p.in, p.br = conn, bufio.NewReaderSize(conn, 64<<10)
		}
	}()

	// Client side: dial one connection per ordered (src, dst) pair.
	addr := ln.Addr().String()
	for src := 0; src < workers; src++ {
		for dst := 0; dst < workers; dst++ {
			if src == dst {
				continue
			}
			wg.Add(1)
			go func(src, dst int) {
				defer wg.Done()
				conn, err := dialPair(ctx, src, dst, addr, cfg.DialTimeout)
				if err != nil {
					fail(fmt.Errorf("dial %d->%d: %w", src, dst, err))
					return
				}
				conn.SetWriteDeadline(deadline)
				hs := binary.LittleEndian.AppendUint32(nil, uint32(src))
				if _, err := conn.Write(binary.LittleEndian.AppendUint32(hs, uint32(dst))); err != nil {
					conn.Close()
					fail(fmt.Errorf("handshake encode %d->%d: %w", src, dst, err))
					return
				}
				conn.SetWriteDeadline(time.Time{})
				t.pairs[src][dst].out = conn
			}(src, dst)
		}
	}
	wg.Wait()
	if cerr := ctx.Err(); cerr != nil {
		// The watchdog tore setup down: report the cancellation, not the
		// net.ErrClosed noise it caused.
		t.Close()
		return nil, fmt.Errorf("bsp: tcp exchange setup canceled: %w", cerr)
	}
	mu.Lock()
	err = firstSetupError(errs)
	mu.Unlock()
	if err != nil {
		t.Close()
		return nil, fmt.Errorf("bsp: tcp exchange setup: %w", err)
	}
	for src := 0; src < workers; src++ {
		for dst := 0; dst < workers; dst++ {
			if src != dst {
				t.wg.Add(1)
				go t.readLoop(src, dst)
			}
		}
	}
	return t, nil
}

// firstSetupError picks the root cause: a listener closed by fail() makes
// the Accept loop report net.ErrClosed too, which would otherwise mask the
// dial or handshake error that triggered the shutdown.
func firstSetupError(errs []error) error {
	if len(errs) == 0 {
		return nil
	}
	for _, err := range errs {
		if !errors.Is(err, net.ErrClosed) {
			return err
		}
	}
	return errs[0]
}

// Send encodes the whole batch as one flat frame in a pooled buffer and
// writes it with a single syscall. A worker's batch for itself skips the
// network but not the codec. Every successful Send has encoded its chunks, so
// it is done with them.
func (t *tcpTransport[M]) Send(ctx context.Context, src, dst, ord int, batch [][]Envelope[M]) (bool, error) {
	if t.closed.Load() {
		return false, net.ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return false, err
	}
	if src == dst {
		return localTransport[M]{wire: true, h: t.h}.Send(ctx, src, dst, ord, batch)
	}
	deadline := time.Now().Add(t.cfg.FrameTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	bp := getWireBuf()
	*bp = appendWireFrame(*bp, ord, batch)
	n := int64(len(*bp))
	p := &t.pairs[src][dst]
	p.expect(deadline)
	p.out.SetWriteDeadline(deadline)
	wrote, err := p.out.Write(*bp)
	putWireBuf(bp)
	if err != nil {
		if wrote > 0 {
			// A torn frame: anything written behind it would be mis-framed, so
			// the pair is dead — later Sends fail fast and the reader, told
			// first, leaves the failure to this Send's caller.
			p.torn.Store(true)
			p.out.Close()
		}
		p.settle(t.cfg.FrameTimeout)
		return false, err
	}
	t.obs.AddFrameSent(n)
	return true, nil
}

// readLoop drains one pair's conn for the transport's lifetime. An error on
// a live transport is fatal to the loop above: the Send it belonged to can
// never be delivered or acked, so the run must end, not wait. A torn pair's
// error is not reported here: the Send that tore it returns its own.
func (t *tcpTransport[M]) readLoop(src, dst int) {
	defer t.wg.Done()
	p := &t.pairs[src][dst]
	for {
		ord, in, err := t.readSend(p)
		if err != nil {
			if !t.closed.Load() && !p.torn.Load() {
				t.h.fatal(fmt.Errorf("bsp: tcp exchange recv %d<-%d: %w", dst, src, err))
			}
			return
		}
		p.settle(t.cfg.FrameTimeout)
		t.h.deliver(src, dst, ord, in)
		t.h.ack(src)
	}
}

// readSend reads the one flat frame a Send wrote into a buffer of its own
// that the inbox keeps, still encoded, until the worker processes it. Only
// the header is checked here: a frame in another format, such as one carrying
// the compressed flag, ends the run.
func (t *tcpTransport[M]) readSend(p *pairConn) (ord int, in Inbox[M], err error) {
	payload, err := readFrame(p.br)
	if err != nil {
		return 0, in, err
	}
	t.obs.AddFrameRecv(int64(4 + len(payload)))
	ord, count, _, err := flatFrameHeader(payload)
	if count > 0 {
		in.Frames = [][]byte{payload}
	}
	return ord, in, err
}

func (t *tcpTransport[M]) Close() error {
	if t.closed.Swap(true) {
		return nil
	}
	for _, row := range t.pairs {
		for i := range row {
			if row[i].out != nil {
				row[i].out.Close()
			}
			if row[i].in != nil {
				row[i].in.Close()
			}
		}
	}
	err := t.listener.Close()
	t.wg.Wait()
	return err
}
