package core

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"psgl/internal/bsp"
	"psgl/internal/graph"
)

var updateCorpus = flag.Bool("update", false, "rewrite committed fuzz seed corpora")

// FuzzGpsiDecode drives the Gpsi wire codec with arbitrary bytes.
// Invariants:
//
//  1. DecodeWire never panics and never over-reads: the returned rest is
//     exactly the unconsumed suffix of the input.
//  2. A successful decode re-encodes byte-identically to the consumed
//     prefix, and that encoding decodes back to the same value with nothing
//     left over — valid inputs round-trip.
//  3. A successful decode names a mapped expansion vertex: 0 <= Next < N and
//     Map[Next] is a data vertex, so expand can index it and no peer frame
//     can carry a seed cursor.
func FuzzGpsiDecode(f *testing.F) {
	valid := gpsi{N: 3, Next: 1, Expanded: 0b001, Pending: 0}
	valid.Map = [maxPatternVertices]graph.VertexID{5, 7, 9}
	for i := int(valid.N); i < maxPatternVertices; i++ {
		valid.Map[i] = unmapped
	}
	f.Add(valid.AppendWire(nil))

	full := gpsi{N: maxPatternVertices, Next: 15, Expanded: 0xffff, Pending: 0xdeadbeef}
	for i := range full.Map {
		full.Map[i] = graph.VertexID(i * 1000)
	}
	f.Add(full.AppendWire(nil))
	f.Add(append(valid.AppendWire(nil), valid.AppendWire(nil)...)) // two back to back
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})                          // N = 0: out of range
	f.Add([]byte{17, 0, 0, 0, 0, 0, 0, 0})                         // N > 16: out of range
	f.Add([]byte{5, 1, 2, 3, 4, 5, 6, 7})                          // header only, body missing
	f.Add([]byte("short"))
	f.Add([]byte{})
	for _, bad := range badNextGpsis() {
		f.Add(bad.AppendWire(nil))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var m gpsi
		rest, err := m.DecodeWire(data)
		if err != nil {
			return
		}
		checkDecodedNext(t, &m)
		consumed := len(data) - len(rest)
		want := gpsiWireHeader + 4*int(m.N)
		if consumed != want {
			t.Fatalf("consumed %d bytes, encoding of N=%d is %d", consumed, m.N, want)
		}
		if len(rest) > 0 && !bytes.Equal(rest, data[consumed:]) {
			t.Fatalf("rest is not the input's suffix")
		}
		re := m.AppendWire(nil)
		if !bytes.Equal(re, data[:consumed]) {
			t.Fatalf("decode/encode not canonical:\n in: %x\nout: %x", data[:consumed], re)
		}
		var m2 gpsi
		rest2, err := m2.DecodeWire(re)
		if err != nil {
			t.Fatalf("re-decoding own encoding: %v", err)
		}
		if len(rest2) != 0 {
			t.Fatalf("%d bytes left after re-decoding own encoding", len(rest2))
		}
		if m2 != m {
			t.Fatalf("round trip changed the value:\n in: %+v\nout: %+v", m, m2)
		}
	})
}

// badNextGpsis are well-formed encodings whose expansion vertex is not a
// mapped vertex, each of which both codecs must reject: a Next at or above N,
// one beyond the Map array, a negative one (a seed cursor's), and one whose
// image is unmapped.
func badNextGpsis() map[string]gpsi {
	base := gpsi{N: 3, Next: 1, Expanded: 0b001}
	base.Map = [maxPatternVertices]graph.VertexID{5, 7, 9}
	for i := int(base.N); i < maxPatternVertices; i++ {
		base.Map[i] = unmapped
	}
	atN, beyond, cursor, unmappedNext := base, base, base, base
	atN.Next = 3
	beyond.Next = maxPatternVertices + 4
	cursor.Next = seedCursor
	unmappedNext.Map[1] = unmapped
	return map[string]gpsi{
		"seed_next_at_n":     atN,
		"seed_next_beyond":   beyond,
		"seed_next_cursor":   cursor,
		"seed_next_unmapped": unmappedNext,
	}
}

// checkDecodedNext fails t unless a successfully decoded m names a mapped
// expansion vertex.
func checkDecodedNext(t *testing.T, m *gpsi) {
	t.Helper()
	if m.Next < 0 || m.Next >= m.N {
		t.Fatalf("decoded Next %d outside [0,%d)", m.Next, m.N)
	}
	if m.Map[m.Next] < 0 {
		t.Fatalf("decoded Next %d is unmapped", m.Next)
	}
}

// groupedGpsiSeeds is the committed seed corpus of FuzzGroupedGpsiRoundTrip:
// valid group encodings of several pattern sizes plus malformed inputs.
func groupedGpsiSeeds() map[string][]byte {
	small := gpsi{N: 3, Next: 1, Expanded: 0b001}
	small.Map = [maxPatternVertices]graph.VertexID{5, 7, 9}
	for i := int(small.N); i < maxPatternVertices; i++ {
		small.Map[i] = unmapped
	}
	full := gpsi{N: maxPatternVertices, Next: 15, Expanded: 0xffff, Pending: 0xdeadbeef}
	for i := range full.Map {
		full.Map[i] = graph.VertexID(i * 1000)
	}
	partial := small
	partial.Map[2] = unmapped
	seeds := map[string][]byte{
		"seed_valid_n3":      small.AppendGroupWire(nil),
		"seed_valid_n16":     full.AppendGroupWire(nil),
		"seed_partial_map":   partial.AppendGroupWire(nil),
		"seed_n_zero":        {0, 0, 0, 0, 0, 0, 0, 0},
		"seed_n_too_big":     {17, 0, 0, 0, 0, 0, 0, 0},
		"seed_wrong_length":  {3, 1, 2, 3, 4},
		"seed_ascii_garbage": []byte("definitely not an encoding"),
		"seed_empty":         {},
	}
	for name, bad := range badNextGpsis() {
		seeds[name] = bad.AppendGroupWire(nil)
	}
	return seeds
}

// TestWriteGroupedGpsiFuzzCorpus regenerates the committed seed corpus under
// testdata/fuzz (with -update).
func TestWriteGroupedGpsiFuzzCorpus(t *testing.T) {
	if !*updateCorpus {
		t.Skip("run with -update to regenerate the committed fuzz corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzGroupedGpsiRoundTrip")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range groupedGpsiSeeds() {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(data)))
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzGroupedGpsiRoundTrip drives the grouping-friendly Gpsi codec with
// arbitrary bytes. Unlike the compressed frame around it, the group encoding
// of one Gpsi is canonical — exactly 8+4N bytes, no varints — so the
// invariants are strict:
//
//  1. DecodeGroupWire never panics and rejects anything that is not exactly
//     one encoding (wrong length, N out of range) or that names no mapped
//     expansion vertex: on success 0 <= Next < N and Map[Next] is mapped.
//  2. A successful full decode (shared = 0) re-encodes byte-identically, and
//     the value survives a trip through a compressed frame next to prefix-
//     sharing siblings — the patch-decode path (shared > 0) reconstructs the
//     same message the full decode does.
func FuzzGroupedGpsiRoundTrip(f *testing.F) {
	for _, data := range groupedGpsiSeeds() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var m gpsi
		if err := m.DecodeGroupWire(data, 0); err != nil {
			return
		}
		checkDecodedNext(t, &m)
		re := m.AppendGroupWire(nil)
		if !bytes.Equal(re, data) {
			t.Fatalf("decode/encode not canonical:\n in: %x\nout: %x", data, re)
		}
		// Ship m through a compressed frame beside prefix-sharing siblings so
		// the patch-decode path (shared > 0) runs, and require every copy to
		// come back identical.
		batch := make([]bsp.Envelope[gpsi], 4)
		for i := range batch {
			sib := m
			sib.Pending ^= uint32(i) // same map prefix, different trailer
			batch[i] = bsp.Envelope[gpsi]{Dest: graph.VertexID(i), Msg: sib}
		}
		buf := bsp.AppendCompressedFrame(nil, 1, batch)
		_, out, err := bsp.DecodeCompressedFrame[gpsi](buf[4:])
		if err != nil {
			t.Fatalf("compressed frame round trip: %v", err)
		}
		if len(out) != len(batch) {
			t.Fatalf("round trip changed count %d→%d", len(batch), len(out))
		}
		seen := map[uint32]bool{}
		for _, env := range out {
			want := m
			want.Pending = env.Msg.Pending
			if env.Msg != want {
				t.Fatalf("patch decode diverged:\n in: %+v\nout: %+v", want, env.Msg)
			}
			seen[env.Msg.Pending] = true
		}
		for i := range batch {
			if !seen[m.Pending^uint32(i)] {
				t.Fatalf("sibling %d lost in round trip", i)
			}
		}
	})
}
