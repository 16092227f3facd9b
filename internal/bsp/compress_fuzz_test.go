package bsp

// Fuzz battery for the compressed frame codec, mirroring FuzzFrameDecode's
// role for the flat codec. The compressed format is not byte-canonical —
// arbitrary valid inputs may carry non-maximal shared lengths — so the
// round-trip invariant is semantic: decode, re-encode, re-decode, and require
// the two decodes to agree as envelope multisets.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// compressedFrameSeeds are the committed seed corpus of
// FuzzCompressedFrameDecode: valid frames in both codec paths, one whose
// step word sets bit 30, a flat frame, and malformed inputs, among them
// counts that claim every byte of either format.
func compressedFrameSeeds() map[string][]byte {
	continuation := AppendCompressedFrame(nil, 7, groupTestBatch(16))[4:]
	continuation[3] |= 1 << 6
	return map[string][]byte{
		"seed_group_batch":    AppendCompressedFrame(nil, 1, groupTestBatch(8))[4:],
		"seed_fallback_batch": AppendCompressedFrame(nil, 3, wireTestBatch(5))[4:],
		"seed_empty_batch":    AppendCompressedFrame(nil, 2, []Envelope[groupMsg]{})[4:],
		"seed_continuation":   continuation,
		"seed_flat_frame":     AppendWireFrame(nil, 1, wireTestBatch(2))[4:],
		"seed_all_ones":       {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
		"seed_lying_count":    lyingCountPayload(true, 64),
		"seed_flat_lying":     lyingCountPayload(false, 64),
		"seed_ascii_garbage":  []byte("not a frame at all, just prose"),
		"seed_empty":          {},
	}
}

// TestWriteCompressedFuzzCorpus regenerates the committed seed corpus under
// testdata/fuzz (with -update): the same seeds the fuzz target registers,
// persisted in go-fuzz corpus format so plain `go test` replays them too.
func TestWriteCompressedFuzzCorpus(t *testing.T) {
	if !*updateGolden {
		t.Skip("run with -update to regenerate the committed fuzz corpus")
	}
	writeFuzzCorpus(t, "FuzzCompressedFrameDecode", compressedFrameSeeds())
}

func writeFuzzCorpus(t *testing.T, target string, seeds map[string][]byte) {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range seeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(data)))
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzCompressedFrameDecode drives the compressed-frame decoder (both the
// GroupWireMessage patch path and the WireMessage fallback) with arbitrary
// payloads. Invariants:
//
//  1. DecodeCompressedFrame never panics, whatever the input claims about
//     counts, varints, shared prefixes, or suffix lengths.
//  2. A successfully decoded payload re-encodes (canonically, via the sorted
//     encoder) and re-decodes to the same step and the same envelope
//     multiset — decode ∘ encode ∘ decode = decode.
//  3. The frame reader path agrees: readFrame + DecodeFrame on the
//     length-prefixed form accepts exactly what the payload decoder accepts.
func FuzzCompressedFrameDecode(f *testing.F) {
	for _, data := range compressedFrameSeeds() {
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, payload []byte) {
		// Patch-decode path.
		step, batch, err := DecodeCompressedFrame[groupMsg](payload)
		if err == nil {
			re := AppendCompressedFrame(nil, step, batch)
			step2, batch2, err2 := DecodeCompressedFrame[groupMsg](re[4:])
			if err2 != nil {
				t.Fatalf("re-decoding own encoding: %v", err2)
			}
			if step2 != step {
				t.Fatalf("round trip changed header: step %d→%d", step, step2)
			}
			a, b := envKeys(batch), envKeys(batch2)
			if len(a) != len(b) {
				t.Fatalf("round trip changed envelope count %d→%d", len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("round trip changed envelope multiset at %d:\n in: %s\nout: %s", i, a[i], b[i])
				}
			}
		}

		// Fallback path must be panic-free on the same input (wireMsg has a
		// variable-length tail, so its validation branches differ).
		_, _, _ = DecodeCompressedFrame[wireMsg](payload)

		// Length-prefixed reader path: the incremental reader plus the
		// auto-detecting decoder must agree with the direct payload decode.
		// (Payloads below the 8-byte header are rejected at the prefix.)
		if len(payload) < wireFrameHeader-4 {
			return
		}
		framed := append(binary.LittleEndian.AppendUint32(nil, uint32(len(payload))), payload...)
		r := bytes.NewReader(framed)
		rp, rerr := readFrame(r)
		if rerr != nil {
			t.Fatalf("readFrame rejected a well-framed payload: %v", rerr)
		}
		if r.Len() != 0 || !bytes.Equal(rp, payload) {
			t.Fatalf("readFrame left %d of %d bytes unread", r.Len(), len(framed))
		}
		_, _, derr := DecodeFrame[groupMsg](rp)
		if (derr == nil) != (err == nil) && framePayloadIsCompressed(payload) {
			t.Fatalf("DecodeFrame and DecodeCompressedFrame disagree: %v vs %v", derr, err)
		}
	})
}
