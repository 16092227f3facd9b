package bsp

import (
	"context"
	"fmt"
)

// transport moves one batch from worker src to worker dst — the only thing
// the run loop (loop.go) asks of the substrate; its credit/ack termination
// detector, and through it the superstep barrier, is built on the contract
// below. It has exactly two implementations: in-process (localTransport) and
// the loopback-TCP mesh (tcpTransport).
//
// batch is a list of envelope chunks (Context.Send fills them). A Send that
// succeeds owns them until it returns: it either hands them to deliver as they
// are (in-process delivery: the receiver's from then on) or encodes them into
// one flat frame (every TCP Send, the self batch included) and delivers the
// bytes. spent reports the second case — the Send is done with the chunks and
// the sender may refill them. A Send that fails leaves them with the sender,
// and ends the run. ord is the ordinal word of the frame header — the
// superstep in the stepped policy, the sender's wire-frame sequence number in
// the pipelined one. A successful Send is delivered and then acknowledged
// through the hooks exactly once, possibly after it returns (the TCP mesh does
// both from its reader goroutines); a failed Send delivers and acks nothing.
type transport[M any] interface {
	Send(ctx context.Context, src, dst, ord int, batch [][]Envelope[M]) (spent bool, err error)
	// Close releases the transport and returns once no hook can fire any
	// more. It is idempotent.
	Close() error
}

// hooks are the loop-side callbacks a transport delivers through.
type hooks[M any] struct {
	// deliver hands dst everything one Send carried, in the form the
	// transport left it: the sender's envelope chunks (in process) or one
	// still-encoded flat frame payload (TCP). Whatever in holds is the
	// receiver's to keep.
	deliver func(src, dst, ord int, in Inbox[M])
	// ack follows deliver for the same Send, strictly after it.
	ack func(src int)
	// fatal reports a failure no Send can return: a reader goroutine losing
	// its connection or a frame it expected.
	fatal func(err error)
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
// without exposing the message type parameter in Config. This package
// provides the one implementation (NewTCPExchangeFactory); a nil factory is
// the in-process transport.
type ExchangeFactory interface {
	tcpConfig() TCPConfig
}

// newTransport resolves factory f (cfg.Exchange) into a transport delivering
// through h.
func newTransport[M any](ctx context.Context, f ExchangeFactory, cfg *Config, h hooks[M]) (transport[M], error) {
	if f == nil {
		return localTransport[M]{h: h}, nil
	}
	if !messageIsWire[M]() {
		var m M
		return nil, fmt.Errorf("bsp: tcp exchange: message type %T does not implement WireMessage", &m)
	}
	return newTCPTransport(ctx, cfg.Workers, f.tcpConfig().withDefaults(), cfg.Observer, h)
}

// localTransport delivers in-process: deliver, then ack, synchronously. The
// sender's chunks pass through as they are, unless wire is set: a TCP mesh's
// self batch skips the socket but not the codec, so it is encoded into one
// flat frame and its receiver holds bytes like every peer's, in the order
// they were sent.
type localTransport[M any] struct {
	wire bool
	h    hooks[M]
}

func (t localTransport[M]) Send(_ context.Context, src, dst, ord int, batch [][]Envelope[M]) (spent bool, err error) {
	in := Inbox[M]{Chunks: batch}
	if spent = t.wire && chunksLen(batch) > 0; spent {
		bp := getWireBuf()
		*bp = appendWireFrame(*bp, ord, batch)
		in = Inbox[M]{Frames: [][]byte{append([]byte(nil), (*bp)[4:]...)}}
		putWireBuf(bp)
	}
	t.h.deliver(src, dst, ord, in)
	t.h.ack(src)
	return spent, nil
}

func (localTransport[M]) Close() error { return nil }

// Inbox is a worker's delivered messages — a superstep's worth in strict
// mode, the pending queue under AsyncExchange: the non-empty envelope chunks
// their senders filled, in delivery order, plus still-encoded flat frame
// payloads (every TCP delivery) that deliverInbox decodes lazily, one message
// at a time, so an inbox costs its encoded size rather than its expanded
// size. Under AsyncExchange own holds the chunks the worker sent itself,
// oldest first, which it takes ahead of the rest (Inbox.take); they are
// queued work like any delivery, so every test of an empty queue and every
// snapshot covers them.
type Inbox[M any] struct {
	Chunks [][]Envelope[M]
	Frames [][]byte
	own    [][]Envelope[M]
}

func (ib *Inbox[M]) empty() bool {
	return len(ib.Chunks) == 0 && len(ib.Frames) == 0 && len(ib.own) == 0
}

// chunksLen counts the envelopes of a chunked batch.
func chunksLen[M any](chunks [][]Envelope[M]) (n int) {
	for _, c := range chunks {
		n += len(c)
	}
	return n
}

// flatten concatenates chunked batches — the cold paths' view of them: a
// snapshot, a bench harness.
func flatten[M any](batches ...[][]Envelope[M]) []Envelope[M] {
	n := 0
	for _, chunks := range batches {
		n += chunksLen(chunks)
	}
	out := make([]Envelope[M], 0, n)
	for _, chunks := range batches {
		for _, c := range chunks {
			out = append(out, c...)
		}
	}
	return out
}
