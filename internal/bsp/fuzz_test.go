package bsp

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzFrameDecode drives the length-prefixed frame reader with arbitrary
// byte streams: truncated headers, lying length prefixes, oversize lengths,
// and garbage payloads. Invariants:
//
//  1. readFrame never panics and never reads past the frame its prefix
//     declares (no over-read into the next frame's bytes).
//  2. A successfully decoded frame re-encodes byte-identically to the bytes
//     consumed — the codec is canonical, so decode ∘ encode = id on the
//     valid subset of inputs (this is the round-trip half of the property).
func FuzzFrameDecode(f *testing.F) {
	f.Add(AppendWireFrame(nil, 1, wireTestBatch(2)))
	f.Add(AppendWireFrame(nil, 0, []Envelope[wireMsg]{}))
	f.Add(append(AppendWireFrame(nil, 7, wireTestBatch(5)), "trailing garbage"...))
	f.Add([]byte{0x0c, 0, 0, 0, 1, 0}) // prefix claims 12 bytes, 2 present
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0})
	lying := lyingCountPayload(false, 64) // a count claiming every byte
	f.Add(append(binary.LittleEndian.AppendUint32(nil, uint32(len(lying))), lying...))
	f.Add([]byte("hello world, this is not a frame"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		payload, err := readFrame(r)
		if err != nil {
			return // rejecting malformed input is the expected outcome
		}
		consumed := 4 + len(payload)
		step, batch, err := DecodeWireFrame[wireMsg](payload)
		if err != nil {
			return
		}
		if consumed < wireFrameHeader || consumed > len(data) {
			t.Fatalf("consumed %d bytes of %d", consumed, len(data))
		}
		if declared := int(binary.LittleEndian.Uint32(data)); consumed != 4+declared {
			t.Fatalf("consumed %d bytes, prefix declares %d", consumed, 4+declared)
		}
		if remaining := r.Len(); remaining != len(data)-consumed {
			t.Fatalf("reader advanced %d bytes, frame is %d", len(data)-remaining, consumed)
		}
		re := AppendWireFrame(nil, step, batch)
		if !bytes.Equal(re, data[:consumed]) {
			t.Fatalf("decode/encode not canonical:\n in: %x\nout: %x", data[:consumed], re)
		}
	})
}
