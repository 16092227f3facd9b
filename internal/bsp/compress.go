package bsp

// Prefix-compressed frames: a codec that no run uses. Gpsis that share a
// mapped-vertex prefix are shipped redundantly by the flat codec (wire.go);
// "Fast and Robust Distributed Subgraph Enumeration" (arXiv:1901.07747)
// attacks exactly this with compressed intermediate results, to save network
// bytes between machines. Every worker of a run is a goroutine of one
// process, so the runtime ships flat frames only; this codec is kept for the
// benchmark rows that weigh it against the flat one (frame-compressed-dense,
// bsp.compressed_*) and for its fuzzers. The compressed frame is a front-coded
// trie walk: messages are sorted by their group encoding, and each envelope
// carries only the byte count it shares with its predecessor plus the
// differing suffix. Decoding is the inverse walk over a single scratch
// buffer.
//
// Compressed frame layout (little-endian):
//
//	uint32  payload length (bytes after this field)
//	uint32  flags|step     bit 31 = compressed, bits 0..30 = step
//	uint32  envelope count
//	count × {
//	    varint  dest delta (zigzag, vs previous envelope's dest)
//	    uvarint shared     (bytes shared with previous group encoding; the
//	                        first envelope's shared is always 0)
//	    uvarint suffix length
//	    suffix bytes
//	}
//
// Bit 31 tells the two formats apart per frame: a flat frame's step word
// never sets it, and the runtime refuses a frame that does (flatFrameHeader).

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

// compressedFrameFlag marks a frame's step word as the compressed format.
const compressedFrameFlag = 1 << 31

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
// multiset.
func newGroupEnc[M any](batch []Envelope[M]) *groupEnc {
	ge := groupEncPool.Get().(*groupEnc)
	ge.msgs, ge.offs, ge.dests, ge.order = ge.msgs[:0], ge.offs[:0], ge.dests[:0], ge.order[:0]
	for i := range batch {
		ge.offs = append(ge.offs, len(ge.msgs))
		ge.msgs = appendGroupEncoding(ge.msgs, &batch[i].Msg)
		ge.order = append(ge.order, len(ge.dests))
		ge.dests = append(ge.dests, batch[i].Dest)
	}
	ge.offs = append(ge.offs, len(ge.msgs))
	sort.Slice(ge.order, func(a, b int) bool {
		ia, ib := ge.order[a], ge.order[b]
		if c := bytes.Compare(ge.enc(ia), ge.enc(ib)); c != 0 {
			return c < 0
		}
		return ge.dests[ia] < ge.dests[ib]
	})
	return ge
}

func commonPrefixLen(a, b []byte) int {
	n, i := min(len(a), len(b)), 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// AppendCompressedFrame encodes batch as one compressed frame appended to
// buf, length prefix included, front coded in sorted order. Exported for the
// hot-path microbenchmarks and golden fixtures; *M must implement
// WireMessage.
func AppendCompressedFrame[M any](buf []byte, step int, batch []Envelope[M]) []byte {
	ge := newGroupEnc(batch)
	defer groupEncPool.Put(ge)
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0) // length, patched below
	buf = binary.LittleEndian.AppendUint32(buf, uint32(step)|compressedFrameFlag)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(batch)))
	var prev []byte
	prevDest := int64(0)
	for i, idx := range ge.order {
		e := ge.enc(idx)
		shared := 0
		if i > 0 {
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

// DecodeCompressedFrame decodes a compressed frame payload (everything after
// the length prefix) into a fresh envelope slice, in the encoder's sorted
// order. Exported for the hot-path microbenchmarks and golden fixtures.
func DecodeCompressedFrame[M any](payload []byte) (step int, batch []Envelope[M], err error) {
	if len(payload) < wireFrameHeader-4 {
		return 0, nil, fmt.Errorf("compressed frame: truncated header (%d bytes)", len(payload))
	}
	word := binary.LittleEndian.Uint32(payload)
	if word&compressedFrameFlag == 0 {
		return 0, nil, fmt.Errorf("compressed frame: flag bit unset in step word %#x", word)
	}
	step = int(word &^ compressedFrameFlag)
	count := int(binary.LittleEndian.Uint32(payload[4:]))
	rest := payload[8:]
	if count < 0 || count > len(rest) {
		return 0, nil, fmt.Errorf("compressed frame: implausible envelope count %d for %d bytes", count, len(rest))
	}
	if count == 0 {
		if len(rest) != 0 {
			return 0, nil, fmt.Errorf("compressed frame: %d trailing bytes", len(rest))
		}
		return step, nil, nil
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
			return 0, nil, fmt.Errorf("compressed frame: envelope %d/%d: bad dest delta", i, count)
		}
		rest = rest[n:]
		sh, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, nil, fmt.Errorf("compressed frame: envelope %d/%d: bad shared length", i, count)
		}
		rest = rest[n:]
		sl, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, nil, fmt.Errorf("compressed frame: envelope %d/%d: bad suffix length", i, count)
		}
		rest = rest[n:]
		if sh > uint64(len(cur)) {
			return 0, nil, fmt.Errorf("compressed frame: envelope %d/%d: shared %d exceeds previous encoding (%d bytes)", i, count, sh, len(cur))
		}
		if sl > uint64(len(rest)) {
			return 0, nil, fmt.Errorf("compressed frame: envelope %d/%d: truncated suffix (%d claimed, %d left)", i, count, sl, len(rest))
		}
		shared := int(sh)
		cur = append(cur[:shared], rest[:sl]...)
		rest = rest[sl:]
		prevDest += dd
		dest := graph.VertexID(prevDest)
		if int64(dest) != prevDest {
			return 0, nil, fmt.Errorf("compressed frame: envelope %d/%d: dest %d out of range", i, count, prevDest)
		}
		batch[i].Dest = dest
		if isGroup {
			if shared > 0 {
				// Seed the patch decode with the previous message: fields
				// fully inside the shared prefix need no re-parse.
				batch[i].Msg = batch[i-1].Msg
			}
			if err := any(&batch[i].Msg).(GroupWireMessage).DecodeGroupWire(cur, shared); err != nil {
				return 0, nil, fmt.Errorf("compressed frame: envelope %d/%d: %w", i, count, err)
			}
		} else {
			tail, err := any(&batch[i].Msg).(WireMessage).DecodeWire(cur)
			if err != nil {
				return 0, nil, fmt.Errorf("compressed frame: envelope %d/%d: %w", i, count, err)
			}
			if len(tail) != 0 {
				return 0, nil, fmt.Errorf("compressed frame: envelope %d/%d: %d undecoded encoding bytes", i, count, len(tail))
			}
		}
	}
	if len(rest) != 0 {
		return 0, nil, fmt.Errorf("compressed frame: %d trailing bytes", len(rest))
	}
	return step, batch, nil
}

// framePayloadIsCompressed reports whether a frame payload carries the
// compressed format, by its step-word flag bit.
func framePayloadIsCompressed(payload []byte) bool {
	return len(payload) >= 4 && binary.LittleEndian.Uint32(payload)&compressedFrameFlag != 0
}

// DecodeFrame decodes a frame payload in either format, detected per frame
// from the step word's flag bit.
func DecodeFrame[M any](payload []byte) (step int, batch []Envelope[M], err error) {
	if framePayloadIsCompressed(payload) {
		return DecodeCompressedFrame[M](payload)
	}
	return DecodeWireFrame[M](payload)
}
