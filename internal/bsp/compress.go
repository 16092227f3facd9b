package bsp

// Prefix-compressed wire frames. Gpsis that share a mapped-vertex prefix are
// shipped redundantly by the flat codec (wire.go); "Fast and Robust
// Distributed Subgraph Enumeration" (arXiv:1901.07747) attacks exactly this
// with compressed intermediate results. The compressed frame is a front-coded
// trie walk: messages are sorted by their group encoding, and each envelope
// carries only the byte count it shares with its predecessor plus the
// differing suffix. Decoding is the inverse walk, one message at a time over
// a single scratch buffer, so a frame never materializes more than one full
// encoding at once.
//
// Compressed frame layout (little-endian):
//
//	uint32  payload length (bytes after this field)
//	uint32  flags|step     bit 31 = compressed, bit 30 = continuation,
//	                       bits 0..29 = step
//	uint32  envelope count
//	count × {
//	    varint  dest delta (zigzag, vs previous envelope's dest)
//	    uvarint shared     (bytes shared with previous group encoding; the
//	                        first envelope's shared is always 0)
//	    uvarint suffix length
//	    suffix bytes
//	}
//
// Bit 31 versions the format in place: flat frames keep a plain step word
// (Run's step counter and the async plane's frame ordinals never reach 2^30
// in practice), so a receiver distinguishes the two per frame with no
// negotiation, and a sender is free to fall back to the flat codec whenever
// compression would not pay (see compressMinBatch).
//
// Bit 30 lets one Send split its batch into bounded chunks — the receiver
// keeps each chunk encoded until the run loop decodes it lazily, which is
// what bounds peak RSS. The train is delivered, and acknowledged once, when
// its last chunk (bit clear) has arrived.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"psgl/internal/graph"
)

// GroupWireMessage is the optional grouping contract of compressed frames: a
// message type (via its pointer) that offers a second, grouping-friendly
// encoding with its most-shared fields first, plus a patch decode. When *M
// does not implement it, compressed frames fall back to the WireMessage
// encoding and a full decode per message — still correct, just with less
// prefix to share.
type GroupWireMessage interface {
	// AppendGroupWire appends the grouping-friendly encoding to dst and
	// returns the extended buffer. It must be decodable by DecodeGroupWire
	// given the exact encoding slice.
	AppendGroupWire(dst []byte) []byte
	// DecodeGroupWire overwrites the receiver from src, which holds one
	// complete group encoding and nothing else. When shared > 0 the receiver
	// has been pre-seeded with the previously decoded message whose encoding
	// equals src[:shared], so implementations may skip re-parsing the shared
	// prefix. Implementations must not leave the receiver aliasing memory
	// owned by other messages.
	DecodeGroupWire(src []byte, shared int) error
}

// messageIsGroupWire reports whether *M implements GroupWireMessage.
func messageIsGroupWire[M any]() bool {
	_, ok := any((*M)(nil)).(GroupWireMessage)
	return ok
}

const (
	// compressedFrameFlag marks a frame's step word as the compressed format.
	compressedFrameFlag = 1 << 31
	// continuationFlag marks a chunk with more chunks of the same Send
	// following.
	continuationFlag = 1 << 30
	// compressedStepMask extracts the step from a compressed step word.
	compressedStepMask = continuationFlag - 1

	// compressMinBatch is the smallest batch worth front coding; below it the
	// varint overhead beats the sharing and the sender emits a flat frame.
	compressMinBatch = 4
	// compressedChunk bounds the envelopes per chunk, which in turn bounds
	// the run loop's lazy-decode scratch (the peak-RSS lever).
	compressedChunk = 512
)

// groupEnc is the pooled encoder scratch: every message's group encoding laid
// end to end beside its destination, plus the sort permutation that turns the
// batch into maximal prefix runs.
type groupEnc struct {
	msgs  []byte
	offs  []int
	dests []graph.VertexID
	order []int
}

var groupEncPool = sync.Pool{New: func() any { return new(groupEnc) }}

func (ge *groupEnc) enc(i int) []byte { return ge.msgs[ge.offs[i]:ge.offs[i+1]] }

// appendGroupEncoding appends m's group encoding (or its flat WireMessage
// encoding when *M is not a GroupWireMessage).
func appendGroupEncoding[M any](dst []byte, m *M) []byte {
	if gm, ok := any(m).(GroupWireMessage); ok {
		return gm.AppendGroupWire(dst)
	}
	return any(m).(WireMessage).AppendWire(dst)
}

// newGroupEnc encodes every message in batch and computes the emission order:
// sorted by encoding bytes (ties by dest), which both maximizes shared
// prefixes and makes the frame a deterministic function of the batch
// multiset. raw is the flat-equivalent frame size — what the same batch would
// have cost uncompressed — for the compression-ratio counters.
func newGroupEnc[M any](batch [][]Envelope[M]) (ge *groupEnc, raw int) {
	ge = groupEncPool.Get().(*groupEnc)
	ge.msgs, ge.offs, ge.dests, ge.order = ge.msgs[:0], ge.offs[:0], ge.dests[:0], ge.order[:0]
	for _, chunk := range batch {
		for i := range chunk {
			ge.offs = append(ge.offs, len(ge.msgs))
			ge.msgs = appendGroupEncoding(ge.msgs, &chunk[i].Msg)
			ge.order = append(ge.order, len(ge.dests))
			ge.dests = append(ge.dests, chunk[i].Dest)
		}
	}
	ge.offs = append(ge.offs, len(ge.msgs))
	sort.Slice(ge.order, func(a, b int) bool {
		ia, ib := ge.order[a], ge.order[b]
		if c := bytes.Compare(ge.enc(ia), ge.enc(ib)); c != 0 {
			return c < 0
		}
		return ge.dests[ia] < ge.dests[ib]
	})
	return ge, wireFrameHeader + 4*len(ge.dests) + len(ge.msgs)
}

func commonPrefixLen(a, b []byte) int {
	n, i := min(len(a), len(b)), 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// appendOneCompressedFrame emits envelopes order[lo:hi] as one compressed
// frame (length prefix included), front coded against each other.
func appendOneCompressedFrame(buf []byte, step int, ge *groupEnc, lo, hi int, more bool) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0) // length, patched below
	word := uint32(step)&compressedStepMask | compressedFrameFlag
	if more {
		word |= continuationFlag
	}
	buf = binary.LittleEndian.AppendUint32(buf, word)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(hi-lo))
	var prev []byte
	prevDest := int64(0)
	for i := lo; i < hi; i++ {
		idx := ge.order[i]
		e := ge.enc(idx)
		shared := 0
		if i > lo {
			shared = commonPrefixLen(prev, e)
		}
		d := int64(ge.dests[idx])
		buf = binary.AppendVarint(buf, d-prevDest)
		prevDest = d
		buf = binary.AppendUvarint(buf, uint64(shared))
		buf = binary.AppendUvarint(buf, uint64(len(e)-shared))
		buf = append(buf, e[shared:]...)
		prev = e
	}
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(buf)-start-4))
	return buf
}

// encodeChunks front codes batch in chunks of at most chunk envelopes (one
// chunk when chunk <= 0), all but the last carrying the continuation bit, and
// hands each frame — length prefix included, appended to whatever buffer next
// supplies — to emit. raw is the flat-equivalent byte size of the batch.
func encodeChunks[M any](step int, batch [][]Envelope[M], chunk int, next func() []byte, emit func(frame []byte)) (raw int) {
	ge, raw := newGroupEnc(batch)
	defer groupEncPool.Put(ge)
	n := len(ge.dests)
	if chunk <= 0 || chunk > n {
		chunk = n
	}
	for lo := 0; ; lo += chunk {
		hi := lo + chunk
		more := hi < n
		if !more {
			hi = n
		}
		emit(appendOneCompressedFrame(next(), step, ge, lo, hi, more))
		if !more {
			return raw
		}
	}
}

// appendCompressedFrames appends batch's chunk train to buf — the form a
// transport writes with one syscall.
func appendCompressedFrames[M any](buf []byte, step int, batch [][]Envelope[M], chunk int) (out []byte, raw int) {
	raw = encodeChunks(step, batch, chunk, func() []byte { return buf }, func(f []byte) { buf = f })
	return buf, raw
}

// AppendCompressedFrame encodes batch as a single compressed frame appended
// to buf, length prefix included. Exported for the hot-path microbenchmarks
// and golden fixtures; *M must implement WireMessage.
func AppendCompressedFrame[M any](buf []byte, step int, batch []Envelope[M]) []byte {
	out, _ := appendCompressedFrames(buf, step, [][]Envelope[M]{batch}, 0)
	return out
}

// compressBatch encodes batch into separately allocated chunk payloads
// (length prefix stripped) — the form an inbox retains until the run loop
// decodes it.
func compressBatch[M any](step int, batch [][]Envelope[M], chunk int) (frames [][]byte, raw int) {
	raw = encodeChunks(step, batch, chunk, func() []byte { return nil }, func(f []byte) { frames = append(frames, f[4:]) })
	return frames, raw
}

// DecodeCompressedFrame decodes a compressed frame payload (everything after
// the length prefix) into a fresh envelope slice, in the encoder's sorted
// order. more reports the continuation bit. Exported for the hot-path
// microbenchmarks and golden fixtures.
func DecodeCompressedFrame[M any](payload []byte) (step int, more bool, batch []Envelope[M], err error) {
	step, more, batch, _, err = decodeCompressedFrame[M](payload)
	return step, more, batch, err
}

// decodeCompressedFrame is DecodeCompressedFrame plus the flat-equivalent
// byte size of the decoded batch, for the compression-ratio counters.
func decodeCompressedFrame[M any](payload []byte) (step int, more bool, batch []Envelope[M], raw int, err error) {
	if len(payload) < wireFrameHeader-4 {
		return 0, false, nil, 0, fmt.Errorf("compressed frame: truncated header (%d bytes)", len(payload))
	}
	word := binary.LittleEndian.Uint32(payload)
	if word&compressedFrameFlag == 0 {
		return 0, false, nil, 0, fmt.Errorf("compressed frame: flag bit unset in step word %#x", word)
	}
	more = word&continuationFlag != 0
	step = int(word & compressedStepMask)
	count := int(binary.LittleEndian.Uint32(payload[4:]))
	rest := payload[8:]
	if count < 0 || count > len(rest) {
		return 0, false, nil, 0, fmt.Errorf("compressed frame: implausible envelope count %d for %d bytes", count, len(rest))
	}
	raw = wireFrameHeader
	if count == 0 {
		if len(rest) != 0 {
			return 0, false, nil, 0, fmt.Errorf("compressed frame: %d trailing bytes", len(rest))
		}
		return step, more, nil, raw, nil
	}
	isGroup := messageIsGroupWire[M]()
	bp := getWireBuf()
	cur := *bp
	defer func() {
		*bp = cur
		putWireBuf(bp)
	}()
	prevDest := int64(0)
	for i := 0; i < count; i++ {
		batch = growEnvelope(batch, count)
		dd, n := binary.Varint(rest)
		if n <= 0 {
			return 0, false, nil, 0, fmt.Errorf("compressed frame: envelope %d/%d: bad dest delta", i, count)
		}
		rest = rest[n:]
		sh, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, false, nil, 0, fmt.Errorf("compressed frame: envelope %d/%d: bad shared length", i, count)
		}
		rest = rest[n:]
		sl, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, false, nil, 0, fmt.Errorf("compressed frame: envelope %d/%d: bad suffix length", i, count)
		}
		rest = rest[n:]
		if sh > uint64(len(cur)) {
			return 0, false, nil, 0, fmt.Errorf("compressed frame: envelope %d/%d: shared %d exceeds previous encoding (%d bytes)", i, count, sh, len(cur))
		}
		if sl > uint64(len(rest)) {
			return 0, false, nil, 0, fmt.Errorf("compressed frame: envelope %d/%d: truncated suffix (%d claimed, %d left)", i, count, sl, len(rest))
		}
		shared := int(sh)
		cur = append(cur[:shared], rest[:sl]...)
		rest = rest[sl:]
		prevDest += dd
		dest := graph.VertexID(prevDest)
		if int64(dest) != prevDest {
			return 0, false, nil, 0, fmt.Errorf("compressed frame: envelope %d/%d: dest %d out of range", i, count, prevDest)
		}
		batch[i].Dest = dest
		if isGroup {
			if shared > 0 {
				// Seed the patch decode with the previous message: fields
				// fully inside the shared prefix need no re-parse.
				batch[i].Msg = batch[i-1].Msg
			}
			if err := any(&batch[i].Msg).(GroupWireMessage).DecodeGroupWire(cur, shared); err != nil {
				return 0, false, nil, 0, fmt.Errorf("compressed frame: envelope %d/%d: %w", i, count, err)
			}
		} else {
			tail, err := any(&batch[i].Msg).(WireMessage).DecodeWire(cur)
			if err != nil {
				return 0, false, nil, 0, fmt.Errorf("compressed frame: envelope %d/%d: %w", i, count, err)
			}
			if len(tail) != 0 {
				return 0, false, nil, 0, fmt.Errorf("compressed frame: envelope %d/%d: %d undecoded encoding bytes", i, count, len(tail))
			}
		}
		raw += 4 + len(cur)
	}
	if len(rest) != 0 {
		return 0, false, nil, 0, fmt.Errorf("compressed frame: %d trailing bytes", len(rest))
	}
	return step, more, batch, raw, nil
}

// framePayloadIsCompressed reports whether a frame payload carries the
// compressed format, by its step-word flag bit.
func framePayloadIsCompressed(payload []byte) bool {
	return len(payload) >= 4 && binary.LittleEndian.Uint32(payload)&compressedFrameFlag != 0
}

// DecodeFrame decodes a frame payload in either format, detected per frame
// from the step word's flag bit. more is always false for flat frames.
func DecodeFrame[M any](payload []byte) (step int, more bool, batch []Envelope[M], err error) {
	if framePayloadIsCompressed(payload) {
		return DecodeCompressedFrame[M](payload)
	}
	step, batch, err = DecodeWireFrame[M](payload)
	return step, false, batch, err
}

// Inbox is a worker's delivered messages — a superstep's worth in strict
// mode, the pending queue under AsyncExchange: the non-empty envelope chunks
// their senders filled, in delivery order, plus still-encoded frame payloads
// — every TCP delivery, flat or compressed, and in-process compressed ones —
// that deliverInbox decodes lazily, one message of a flat frame or one
// bounded compressed chunk at a time, so an inbox costs its encoded size
// rather than its expanded size. Under AsyncExchange own holds the chunks the
// worker sent itself, oldest first, which it takes ahead of the rest
// (Inbox.take); they are queued work like any delivery, so every test of an
// empty queue and every snapshot covers them.
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

// deliverInbox is how a worker consumes deliveries: envelope chunks first,
// then the flat frames, then the compressed ones — every flat delivery ahead
// of every front-coded one, each in the order it was queued, whether it
// arrived as chunks or as bytes, so a TCP run processes what an in-process
// run does in the same order. A flat frame is decoded
// one message at a time into a zeroed envelope, so nothing a DecodeWire keeps
// of its receiver is shared with a message Process kept; a compressed frame is
// decoded as one bounded chunk through a pooled scratch. Either way each
// message goes to Process like any chunk's, and each chunk and frame is
// dropped from the inbox once the delivery reaches it. A frame that fails to
// decode aborts the run. The compressed_* counters it feeds are logical: they
// ride RunStats, which a snapshot carries, so they stay exactly-once across a
// stop and a resume. The stop test (Context.Stopped)
// short-circuits the rest of the inbox instead of draining it: an abort is
// seen at the next message, a done step context within 256; after runs after
// every Process call (the worker checks for a halt and flushes full frames
// there) and stops the delivery by returning false. Returns the number of
// messages processed.
func deliverInbox[M any](ctx *Context[M], prog Program[M], ib *Inbox[M], after func() bool) int64 {
	processed := int64(0)
	// process hands message i of a chunk or frame to Process; false stops the
	// delivery.
	process := func(i int, env *Envelope[M]) bool {
		if ctx.aborted.Load() != nil || i&255 == 0 && ctx.Stopped() {
			return false
		}
		prog.Process(ctx, *env)
		processed++
		return after()
	}
	for c, chunk := range ib.Chunks {
		for i := range chunk {
			if !process(i, &chunk[i]) {
				return processed
			}
		}
		ib.Chunks[c] = nil
	}
	var (
		env *Envelope[M] // a flat frame's decode target
		msg WireMessage  // its Msg
	)
	for _, compressed := range [2]bool{false, true} {
		for f, fp := range ib.Frames {
			if fp == nil || framePayloadIsCompressed(fp) != compressed {
				continue
			}
			if ctx.Stopped() {
				return processed
			}
			ib.Frames[f] = nil
			if compressed {
				_, _, batch, raw, err := decodeCompressedFrame[M](fp)
				if err != nil {
					// Frames come from our own encoder or a CRC-verified snapshot;
					// one that fails to decode is unrecoverable state damage.
					ctx.Abort(fmt.Errorf("corrupt compressed inbox frame: %w", err))
					return processed
				}
				ctx.Add(ctrCompressedFrames, 1)
				ctx.Add(ctrCompressedWireBytes, int64(4+len(fp)))
				ctx.Add(ctrCompressedRawBytes, int64(raw))
				for i := range batch {
					if !process(i, &batch[i]) {
						return processed
					}
				}
				continue
			}
			_, count, rest, err := flatFrameHeader(fp)
			if env == nil {
				env = new(Envelope[M])
				msg = any(&env.Msg).(WireMessage)
			}
			for i := 0; err == nil && i < count; i++ {
				*env = Envelope[M]{}
				if rest, err = decodeEnvelope(env, msg, rest, i, count); err == nil && !process(i, env) {
					return processed
				}
			}
			if err == nil && len(rest) != 0 {
				err = fmt.Errorf("wire frame: %d trailing bytes", len(rest))
			}
			if err != nil {
				ctx.Abort(fmt.Errorf("corrupt flat inbox frame: %w", err))
				return processed
			}
		}
	}
	return processed
}

// The counters deliverInbox feeds per decoded frame.
var (
	ctrCompressedFrames    = CounterID("compressed_frames")
	ctrCompressedWireBytes = CounterID("compressed_wire_bytes")
	ctrCompressedRawBytes  = CounterID("compressed_raw_bytes")
)
