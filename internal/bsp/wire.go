package bsp

// Compact wire codec of the TCP transport: a hand-rolled length-prefixed
// binary frame with pooled encode/decode buffers (Chen et al. observe the
// message plane dominates massive subgraph counting at scale — this is the
// repo's answer on a single machine). Every message type that crosses a
// socket implements WireMessage; gob survives only in checkpoint snapshots.

import (
	"bytes"
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
// streaming decoder state survives between frames, so a rebuilt mesh after
// recovery starts from a clean slate.

const wireFrameHeader = 12 // length + step + count

// wireBufPool recycles frame buffers across Sends and reads so steady-state
// encode/decode performs no per-frame allocations.
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
// were consumed) in buf's storage, grown when too small — callers pass a
// pooled buffer and copy out what they retain. The length is validated
// before any allocation, so truncated, oversized, or garbage prefixes fail
// cleanly; FuzzFrameDecode and FuzzCompressedFrameDecode drive it, and
// DecodeFrame takes the payload from there in either format.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	if n < wireFrameHeader-4 || n > 1<<30 {
		return nil, fmt.Errorf("implausible frame length %d", n)
	}
	if n > maxEagerFrame {
		// The buffer grows as data arrives instead of trusting n.
		b := bytes.NewBuffer(buf[:0])
		if _, err := io.CopyN(b, r, int64(n)); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		return b.Bytes(), nil
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// DecodeWireFrame decodes a frame payload (everything after the length
// prefix) into a fresh envelope slice. Exported for the hot-path
// microbenchmarks.
func DecodeWireFrame[M any](payload []byte) (step int, batch []Envelope[M], err error) {
	if len(payload) < wireFrameHeader-4 {
		return 0, nil, fmt.Errorf("wire frame: truncated header (%d bytes)", len(payload))
	}
	step = int(binary.LittleEndian.Uint32(payload))
	count := int(binary.LittleEndian.Uint32(payload[4:]))
	rest := payload[8:]
	if count < 0 || count > len(rest) {
		return 0, nil, fmt.Errorf("wire frame: implausible envelope count %d for %d bytes", count, len(rest))
	}
	if count == 0 {
		if len(rest) != 0 {
			return 0, nil, fmt.Errorf("wire frame: %d trailing bytes", len(rest))
		}
		return step, nil, nil
	}
	batch = make([]Envelope[M], count)
	for i := 0; i < count; i++ {
		if len(rest) < 4 {
			return 0, nil, fmt.Errorf("wire frame: truncated envelope %d/%d", i, count)
		}
		batch[i].Dest = graph.VertexID(binary.LittleEndian.Uint32(rest))
		rest, err = any(&batch[i].Msg).(WireMessage).DecodeWire(rest[4:])
		if err != nil {
			return 0, nil, fmt.Errorf("wire frame: envelope %d/%d: %w", i, count, err)
		}
	}
	if len(rest) != 0 {
		return 0, nil, fmt.Errorf("wire frame: %d trailing bytes", len(rest))
	}
	return step, batch, nil
}
