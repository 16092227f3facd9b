package bsp

import (
	"context"
	"fmt"
)

// transport moves one batch from worker src to worker dst — the only thing
// the run loop (loop.go) asks of the substrate; its credit/ack termination
// detector, and through it the superstep barrier, is built on the contract
// below. It has exactly three implementations: in-process (localTransport),
// the loopback-TCP mesh (tcpTransport), and the fault middleware that wraps
// either (faultTransport).
//
// batch is a list of envelope chunks (Context.Send fills them). A Send that
// succeeds owns them until it returns: it either hands them to deliver as they
// are (flat in-process delivery: the receiver's from then on) or encodes them
// (every TCP Send, the self batch included, and a compressed batch worth
// coding) and delivers the bytes. spent reports the second case — the Send is
// done with the chunks and the sender may refill them. A Send that fails
// leaves them with the sender, to retry. ord is the ordinal word of the frame
// header — the superstep in the stepped policy, the sender's wire-frame
// sequence number in the pipelined one — and the address fault schedules
// match against. A successful Send is delivered and then acknowledged through
// the hooks exactly once, possibly after it returns (the TCP mesh does both
// from its reader goroutines); a failed Send delivers and acks nothing.
type transport[M any] interface {
	Send(ctx context.Context, src, dst, ord int, batch [][]Envelope[M]) (spent bool, err error)
	// Close releases the transport and returns once no hook can fire any
	// more. It is idempotent.
	Close() error
}

// hooks are the loop-side callbacks a transport delivers through.
type hooks[M any] struct {
	// deliver hands dst everything one Send carried, in the form the
	// transport left it: the sender's envelope chunks (flat, in process) or
	// still-encoded frame payloads (TCP, or compressed). Whatever in holds is
	// the receiver's to keep.
	deliver func(src, dst, ord int, in Inbox[M])
	// ack follows deliver for the same Send, strictly after it.
	ack func(src int)
	// fatal reports a failure no Send can return: a reader goroutine losing
	// its connection or a frame it expected.
	fatal func(err error)
	// faultPoint, when set, narrows which Sends the fault middleware treats
	// as fault opportunities; nil means every Send is one.
	faultPoint func(src, dst int) bool
}

// trySend is the non-blocking send the hooks signal the loops with: a full
// buffer means the loop already has a wake-up (or a failure) pending.
func trySend[T any](ch chan<- T, v T) {
	select {
	case ch <- v:
	default:
	}
}

// ExchangeFactory selects the transport a run exchanges messages over,
// without exposing the message type parameter in Config. Implementations are
// provided by this package (NewTCPExchangeFactory,
// NewScheduledFaultExchangeFactory); a nil factory is the in-process
// transport.
type ExchangeFactory interface {
	kind() string
}

// newTransport resolves factory f (cfg.Exchange, or a fault factory's inner
// one) into a transport delivering through h, constructed with the frame
// codec cfg.CompressFrames selects.
func newTransport[M any](ctx context.Context, f ExchangeFactory, cfg *Config, h hooks[M]) (transport[M], error) {
	wire := messageIsWire[M]()
	switch ff := f.(type) {
	case nil:
		// Compression needs the binary codec; an in-process run of a type
		// without one stays flat regardless of the flag.
		return localTransport[M]{compress: cfg.CompressFrames && wire, h: h}, nil
	case tcpFactory:
		if !wire {
			var m M
			return nil, fmt.Errorf("bsp: tcp exchange: message type %T does not implement WireMessage", &m)
		}
		return newTCPTransport(ctx, cfg.Workers, ff.cfg.withDefaults(), cfg.CompressFrames, cfg.Observer, h)
	case *ScheduledFaultFactory:
		inner, err := newTransport(ctx, ff.inner, cfg, h)
		if err != nil {
			return nil, err
		}
		return &faultTransport[M]{inner: inner, point: h.faultPoint, schedule: ff}, nil
	default:
		return nil, fmt.Errorf("bsp: unknown exchange factory %q", f.kind())
	}
}

// localTransport delivers in-process: deliver, then ack, synchronously. Flat,
// the sender's chunks pass through as they are; compressed, every batch worth
// coding is front coded into bounded frames that stay encoded until
// deliverInbox expands them, so an inbox costs its compressed size wherever
// its messages came from. wire encodes what compression leaves flat into one
// flat frame: a TCP mesh's self batch skips the socket but not the codec, so
// its receiver holds bytes like every peer's, in the order they were sent.
type localTransport[M any] struct {
	compress bool
	wire     bool
	h        hooks[M]
}

func (t localTransport[M]) Send(_ context.Context, src, dst, ord int, batch [][]Envelope[M]) (spent bool, err error) {
	in := Inbox[M]{Chunks: batch}
	switch n := chunksLen(batch); {
	case t.compress && n >= compressMinBatch:
		in.Frames, _ = compressBatch(ord, batch, compressedChunk)
	case t.wire && n > 0:
		bp := getWireBuf()
		*bp = appendWireFrame(*bp, ord, batch)
		in.Frames = [][]byte{append([]byte(nil), (*bp)[4:]...)}
		putWireBuf(bp)
	}
	if spent = len(in.Frames) > 0; spent {
		in.Chunks = nil
	}
	t.h.deliver(src, dst, ord, in)
	t.h.ack(src)
	return spent, nil
}

func (localTransport[M]) Close() error { return nil }
