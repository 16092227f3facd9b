package bsp

// Compact wire codec of the TCP transport: a hand-rolled length-prefixed
// binary frame with pooled encode/decode buffers (Chen et al. observe the
// message plane dominates massive subgraph counting at scale — this is the
// repo's answer on a single machine). Every message type that crosses a
// socket implements WireMessage; gob survives only in checkpoint snapshots.

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"psgl/internal/graph"
)

// WireMessage is the codec contract of the TCP transport (and of compressed
// frames anywhere): a message type, via its pointer, that can append its
// encoding to a byte buffer and decode itself back in place. A run over a
// TCP factory whose message type lacks it fails at setup.
type WireMessage interface {
	// AppendWire appends the receiver's encoding to dst and returns the
	// extended buffer.
	AppendWire(dst []byte) []byte
	// DecodeWire overwrites the receiver from the front of src and returns
	// the remaining bytes.
	DecodeWire(src []byte) (rest []byte, err error)
}

// messageIsWire reports whether *M implements WireMessage.
func messageIsWire[M any]() bool {
	_, ok := any((*M)(nil)).(WireMessage)
	return ok
}

// Wire frame layout (little-endian):
//
//	uint32  payload length (bytes after this field)
//	uint32  step
//	uint32  envelope count
//	count × { int32 dest ; message bytes (WireMessage encoding) }
//
// The 4-byte length prefix makes the read side a ReadFull pair — no
// streaming decoder state survives between frames.

const wireFrameHeader = 12 // length + step + count

// wireBufPool recycles the buffers a Send stages its frames in and the
// compressed decoder's scratch, so neither allocates per frame in steady
// state.
var wireBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

func getWireBuf() *[]byte { return wireBufPool.Get().(*[]byte) }

func putWireBuf(bp *[]byte) {
	*bp = (*bp)[:0]
	wireBufPool.Put(bp)
}

// AppendWireFrame encodes one superstep batch into buf (appended) with the
// length prefix patched in, ready for a single conn.Write. Exported for the
// hot-path microbenchmarks; M's pointer must implement WireMessage.
func AppendWireFrame[M any](buf []byte, step int, batch []Envelope[M]) []byte {
	return appendWireFrame(buf, step, [][]Envelope[M]{batch})
}

// appendWireFrame is AppendWireFrame over a chunked batch: one frame, the
// chunks' envelopes in order.
func appendWireFrame[M any](buf []byte, step int, batch [][]Envelope[M]) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0) // length, patched below
	buf = binary.LittleEndian.AppendUint32(buf, uint32(step))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(chunksLen(batch)))
	for _, chunk := range batch {
		for i := range chunk {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(chunk[i].Dest))
			buf = any(&chunk[i].Msg).(WireMessage).AppendWire(buf)
		}
	}
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(buf)-start-4))
	return buf
}

// maxEagerFrame is the largest payload read in one shot. Larger (rare, or
// adversarial) lengths are read incrementally, so a lying prefix can only
// cost as much memory as bytes actually arrive.
const maxEagerFrame = 1 << 20

// readFrame is the one frame reader: it reads a length-prefixed frame from r
// and returns its payload (everything after the prefix; 4+len(payload) bytes
// were consumed) in a buffer of its own, which the caller keeps. The length
// is validated before any allocation, and a buffer beyond maxEagerFrame grows
// as the bytes arrive, never past the length, so truncated, oversized, or
// garbage prefixes fail cleanly; FuzzFrameDecode and FuzzCompressedFrameDecode
// drive it, and DecodeFrame takes the payload from there in either format.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	if n < wireFrameHeader-4 || n > 1<<30 {
		return nil, fmt.Errorf("implausible frame length %d", n)
	}
	var buf []byte
	for len(buf) < n {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), min(n, max(2*cap(buf), maxEagerFrame)))
			buf = grown[:copy(grown, buf)]
		}
		got, err := io.ReadFull(r, buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+got]
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// maxTrustedCount is the most envelopes a frame decoder makes room for
// before it has decoded them: a larger count is grown into, so a frame whose
// count lies costs what its bytes decode to, not what the count claims.
const maxTrustedCount = 512

// growEnvelope extends a decoder's batch by one zero envelope, doubling its
// room — from maxTrustedCount, never past the frame's count — when full.
func growEnvelope[M any](batch []Envelope[M], count int) []Envelope[M] {
	if len(batch) == cap(batch) {
		grown := make([]Envelope[M], len(batch), min(count, max(2*cap(batch), maxTrustedCount)))
		batch = grown[:copy(grown, batch)]
	}
	return batch[:len(batch)+1]
}

// flatFrameHeader checks a flat frame payload's header: its step, an
// envelope count its bytes could hold, and no bytes behind an empty frame.
// rest is the envelopes' bytes.
func flatFrameHeader(payload []byte) (step, count int, rest []byte, err error) {
	if len(payload) < wireFrameHeader-4 {
		return 0, 0, nil, fmt.Errorf("wire frame: truncated header (%d bytes)", len(payload))
	}
	step = int(binary.LittleEndian.Uint32(payload))
	count = int(binary.LittleEndian.Uint32(payload[4:]))
	rest = payload[8:]
	if count < 0 || count > len(rest) {
		return 0, 0, nil, fmt.Errorf("wire frame: implausible envelope count %d for %d bytes", count, len(rest))
	}
	if count == 0 && len(rest) != 0 {
		return 0, 0, nil, fmt.Errorf("wire frame: %d trailing bytes", len(rest))
	}
	return step, count, rest, nil
}

// decodeEnvelope decodes envelope i of a flat frame's count from the front of
// rest into env, whose Msg msg is, and returns the bytes behind it.
func decodeEnvelope[M any](env *Envelope[M], msg WireMessage, rest []byte, i, count int) ([]byte, error) {
	if len(rest) < 4 {
		return nil, fmt.Errorf("wire frame: truncated envelope %d/%d", i, count)
	}
	env.Dest = graph.VertexID(binary.LittleEndian.Uint32(rest))
	rest, err := msg.DecodeWire(rest[4:])
	if err != nil {
		return nil, fmt.Errorf("wire frame: envelope %d/%d: %w", i, count, err)
	}
	return rest, nil
}

// DecodeWireFrame decodes a frame payload (everything after the length
// prefix) into a fresh envelope slice. Exported for the hot-path
// microbenchmarks.
func DecodeWireFrame[M any](payload []byte) (step int, batch []Envelope[M], err error) {
	step, count, rest, err := flatFrameHeader(payload)
	if err != nil || count == 0 {
		return step, nil, err
	}
	for i := 0; i < count; i++ {
		batch = growEnvelope(batch, count)
		if rest, err = decodeEnvelope(&batch[i], any(&batch[i].Msg).(WireMessage), rest, i, count); err != nil {
			return 0, nil, err
		}
	}
	if len(rest) != 0 {
		return 0, nil, fmt.Errorf("wire frame: %d trailing bytes", len(rest))
	}
	return step, batch, nil
}
