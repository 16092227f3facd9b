package bsp

// Unit battery for the prefix-compressed frame codec: round trips through
// both the GroupWireMessage patch path and the generic WireMessage fallback,
// chunking/continuation, malformed-input rejection, the grouped local and TCP
// exchanges (strict and async), and grouped checkpoint snapshots. The
// differential suites that pin compressed counts against the flat oracle live
// in internal/core, next to the engine.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"psgl/internal/graph"
	"psgl/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden compressed-frame fixtures")

// groupMsg is a fixed-layout test message implementing both WireMessage and
// GroupWireMessage: Key is the heavily shared field and leads the group
// layout, Seq/Flag are the volatile trailer. 13 bytes, canonical.
type groupMsg struct {
	Key  [8]byte
	Seq  uint32
	Flag uint8
}

func (m *groupMsg) AppendWire(dst []byte) []byte {
	dst = append(dst, m.Key[:]...)
	dst = binary.LittleEndian.AppendUint32(dst, m.Seq)
	return append(dst, m.Flag)
}

func (m *groupMsg) DecodeWire(src []byte) ([]byte, error) {
	if len(src) < 13 {
		return nil, fmt.Errorf("groupMsg: truncated (%d bytes)", len(src))
	}
	copy(m.Key[:], src)
	m.Seq = binary.LittleEndian.Uint32(src[8:])
	m.Flag = src[12]
	return src[13:], nil
}

func (m *groupMsg) AppendGroupWire(dst []byte) []byte { return m.AppendWire(dst) }

func (m *groupMsg) DecodeGroupWire(src []byte, shared int) error {
	if len(src) != 13 {
		return fmt.Errorf("groupMsg group wire: %d bytes, want 13", len(src))
	}
	// Key bytes inside the shared prefix are inherited from the seed.
	i0 := shared
	if i0 > 8 {
		i0 = 8
	}
	copy(m.Key[i0:], src[i0:8])
	m.Seq = binary.LittleEndian.Uint32(src[8:])
	m.Flag = src[12]
	return nil
}

// groupTestBatch builds a batch with heavy key-prefix sharing: runs of 16
// messages differ only in their trailing key bytes and trailers.
func groupTestBatch(n int) []Envelope[groupMsg] {
	batch := make([]Envelope[groupMsg], n)
	for i := range batch {
		var m groupMsg
		copy(m.Key[:], []byte{0xA1, 0xB2, 0xC3, 0xD4, 0xE5, 0xF6, byte(i / 16), byte(i % 4)})
		m.Seq = uint32(i * 31)
		m.Flag = byte(i % 3)
		batch[i] = Envelope[groupMsg]{Dest: graph.VertexID(i % 7), Msg: m}
	}
	return batch
}

// envKeys renders a batch as a sorted multiset of dest|encoding strings, so
// tests can compare deliveries regardless of the codec's sort order.
func envKeys[M any](batch []Envelope[M]) []string {
	keys := make([]string, len(batch))
	for i := range batch {
		keys[i] = fmt.Sprintf("%d|%x", batch[i].Dest, appendGroupEncoding(nil, &batch[i].Msg))
	}
	sort.Strings(keys)
	return keys
}

func sameMultiset[M any](t *testing.T, got, want []Envelope[M]) {
	t.Helper()
	g, w := envKeys(got), envKeys(want)
	if len(g) != len(w) {
		t.Fatalf("got %d envelopes, want %d", len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("envelope multiset differs at %d:\n got %s\nwant %s", i, g[i], w[i])
		}
	}
}

func TestMessageIsGroupWire(t *testing.T) {
	if !messageIsGroupWire[groupMsg]() {
		t.Error("messageIsGroupWire[groupMsg] = false, want true")
	}
	if messageIsGroupWire[wireMsg]() {
		t.Error("messageIsGroupWire[wireMsg] = true, want false")
	}
	if messageIsGroupWire[int]() {
		t.Error("messageIsGroupWire[int] = true, want false")
	}
}

func TestCompressedFrameRoundTripGroup(t *testing.T) {
	batch := groupTestBatch(64)
	buf := AppendCompressedFrame(nil, 9, batch)
	if got := int(binary.LittleEndian.Uint32(buf)); got != len(buf)-4 {
		t.Fatalf("length prefix %d, want %d", got, len(buf)-4)
	}
	if !framePayloadIsCompressed(buf[4:]) {
		t.Fatal("compressed frame not detected as compressed")
	}
	step, more, out, err := DecodeCompressedFrame[groupMsg](buf[4:])
	if err != nil {
		t.Fatal(err)
	}
	if step != 9 || more {
		t.Fatalf("step=%d more=%v, want 9 false", step, more)
	}
	sameMultiset(t, out, batch)

	flat := AppendWireFrame(nil, 9, batch)
	if len(buf) >= len(flat) {
		t.Errorf("compressed frame %dB is not smaller than flat %dB on a prefix-sharing batch", len(buf), len(flat))
	}
	t.Logf("64-envelope prefix-sharing batch: compressed %dB, flat %dB", len(buf), len(flat))
}

func TestCompressedFrameRoundTripFallback(t *testing.T) {
	// wireMsg is a WireMessage but not a GroupWireMessage: the frame front
	// codes the flat encodings and decodes each message in full.
	batch := wireTestBatch(32)
	buf := AppendCompressedFrame(nil, 3, batch)
	step, more, out, err := DecodeCompressedFrame[wireMsg](buf[4:])
	if err != nil {
		t.Fatal(err)
	}
	if step != 3 || more {
		t.Fatalf("step=%d more=%v, want 3 false", step, more)
	}
	sameMultiset(t, out, batch)
}

func TestCompressedFrameEmptyBatch(t *testing.T) {
	buf := AppendCompressedFrame(nil, 2, []Envelope[groupMsg]{})
	step, more, out, err := DecodeCompressedFrame[groupMsg](buf[4:])
	if err != nil {
		t.Fatal(err)
	}
	if step != 2 || more || len(out) != 0 {
		t.Fatalf("step=%d more=%v len=%d, want 2 false 0", step, more, len(out))
	}
}

func TestCompressedChunkingContinuation(t *testing.T) {
	batch := groupTestBatch(1200)
	frames, raw := compressBatch(7, [][]Envelope[groupMsg]{batch[:500], batch[500:]}, 512)
	if len(frames) != 3 {
		t.Fatalf("1200 envelopes at chunk 512: %d frames, want 3", len(frames))
	}
	if wantRaw := wireFrameHeader + 17*len(batch); raw != wantRaw {
		t.Fatalf("raw = %d, want %d", raw, wantRaw)
	}
	var all []Envelope[groupMsg]
	for i, fp := range frames {
		step, more, out, err := DecodeCompressedFrame[groupMsg](fp)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if step != 7 {
			t.Fatalf("frame %d: step %d, want 7", i, step)
		}
		if wantMore := i < len(frames)-1; more != wantMore {
			t.Fatalf("frame %d: more=%v, want %v", i, more, wantMore)
		}
		if len(out) > 512 {
			t.Fatalf("frame %d: %d envelopes exceed the chunk bound", i, len(out))
		}
		all = append(all, out...)
	}
	sameMultiset(t, all, batch)
}

func TestCompressedFrameDeterministic(t *testing.T) {
	// The frame must be a deterministic function of the batch multiset: the
	// same envelopes in a different order encode byte-identically.
	batch := groupTestBatch(48)
	perm := append([]Envelope[groupMsg](nil), batch...)
	for i := range perm {
		j := (i * 31) % len(perm)
		perm[i], perm[j] = perm[j], perm[i]
	}
	a := AppendCompressedFrame(nil, 1, batch)
	b := AppendCompressedFrame(nil, 1, perm)
	if !bytes.Equal(a, b) {
		t.Fatal("compressed frame depends on batch order, not just the multiset")
	}
}

func TestCompressedFrameDecodeErrors(t *testing.T) {
	valid := AppendCompressedFrame(nil, 5, groupTestBatch(8))[4:]

	flagless := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(flagless, 5) // clear bit 31

	badCount := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(badCount[4:], 1<<28)

	badShared := append([]byte(nil), valid...)
	// First envelope's shared must be 0; force it to a huge varint by
	// rewriting the byte after its dest delta varint. Envelope area starts at
	// 8; dest delta of envelope 0 is a single varint byte here.
	badShared[9] = 0xff
	badShared = badShared[:10] // and truncate so the uvarint is unterminated

	cases := map[string][]byte{
		"truncated header": valid[:6],
		"flag bit unset":   flagless,
		"bad count":        badCount,
		"bad shared":       badShared,
		"truncated body":   valid[:len(valid)-5],
		"trailing bytes":   append(append([]byte(nil), valid...), 0x00),
		"empty":            {},
	}
	for name, p := range cases {
		if _, _, _, err := DecodeCompressedFrame[groupMsg](p); err == nil {
			t.Errorf("%s: decode succeeded, want error", name)
		}
	}

	// Fallback path: an encoding with undecoded tail bytes must be rejected.
	padded := []Envelope[wireMsg]{{Dest: 1, Msg: wireMsg{A: 1}}, {Dest: 2, Msg: wireMsg{A: 2}}}
	buf := AppendCompressedFrame(nil, 1, padded)[4:]
	// Grow every suffix by a byte: re-encode by hand with one byte appended.
	grown := appendOneCompressedFrameWithPad(padded)
	if _, _, _, err := DecodeCompressedFrame[wireMsg](grown); err == nil {
		t.Error("padded encodings: decode succeeded, want undecoded-bytes error")
	}
	_ = buf
}

// appendOneCompressedFrameWithPad builds a compressed frame whose per-message
// encodings carry one trailing pad byte each — valid framing, invalid message
// encodings — to exercise the fallback decoder's full-consumption check.
func appendOneCompressedFrameWithPad(batch []Envelope[wireMsg]) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, uint32(1)|compressedFrameFlag)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(batch)))
	prevDest := int64(0)
	for i := range batch {
		enc := batch[i].Msg.AppendWire(nil)
		enc = append(enc, 0xEE) // pad
		d := int64(batch[i].Dest)
		buf = binary.AppendVarint(buf, d-prevDest)
		prevDest = d
		buf = binary.AppendUvarint(buf, 0)
		buf = binary.AppendUvarint(buf, uint64(len(enc)))
		buf = append(buf, enc...)
	}
	return buf
}

func TestDecodeFrameAutoDetect(t *testing.T) {
	batch := groupTestBatch(16)
	flat := AppendWireFrame(nil, 4, batch)
	comp := AppendCompressedFrame(nil, 4, batch)

	step, more, out, err := DecodeFrame[groupMsg](flat[4:])
	if err != nil || step != 4 || more {
		t.Fatalf("flat: step=%d more=%v err=%v", step, more, err)
	}
	sameMultiset(t, out, batch)

	step, more, out, err = DecodeFrame[groupMsg](comp[4:])
	if err != nil || step != 4 || more {
		t.Fatalf("compressed: step=%d more=%v err=%v", step, more, err)
	}
	sameMultiset(t, out, batch)
}

// fanProgram sprays messages with shared prefixes for several supersteps and
// records everything it receives — the delivered multiset is the oracle for
// compressed-vs-flat comparisons.
type fanProgram struct {
	mu       sync.Mutex
	received []Envelope[groupMsg]
	rounds   int
}

func (p *fanProgram) Init(ctx *Context[groupMsg]) {
	if ctx.Worker() != 0 {
		return
	}
	for i := 0; i < 300; i++ {
		var m groupMsg
		copy(m.Key[:], []byte{9, 9, 9, 9, byte(i / 64), byte(i / 8), byte(i), 0})
		m.Seq = uint32(i)
		ctx.Send(graph.VertexID(i%97), m)
	}
}

func (p *fanProgram) Process(ctx *Context[groupMsg], env Envelope[groupMsg]) {
	p.mu.Lock()
	p.received = append(p.received, env)
	p.mu.Unlock()
	ctx.AddCounter("delivered", 1)
	if int(env.Msg.Flag) < p.rounds {
		m := env.Msg
		m.Flag++
		m.Seq += 1000
		ctx.Send(graph.VertexID((int(env.Dest)+13)%97), m)
	}
}

func runFan(t *testing.T, compress, async bool, factory ExchangeFactory) ([]Envelope[groupMsg], *RunStats) {
	t.Helper()
	prog := &fanProgram{rounds: 2}
	part := graph.NewPartition(3, 5)
	cfg := Config{
		Workers:        3,
		Owner:          func(v graph.VertexID) int { return part.Owner(v) },
		Exchange:       factory,
		AsyncExchange:  async,
		CompressFrames: compress,
	}
	stats, err := Run[groupMsg](cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	return prog.received, stats
}

func TestCompressedRunMatchesFlat(t *testing.T) {
	factories := map[string]func() ExchangeFactory{
		"local": func() ExchangeFactory { return nil },
		"tcp":   func() ExchangeFactory { return NewTCPExchangeFactory() },
	}
	for name, mk := range factories {
		for _, async := range []bool{false, true} {
			mode := fmt.Sprintf("%s/async=%v", name, async)
			t.Run(mode, func(t *testing.T) {
				flatEnvs, flatStats := runFan(t, false, async, mk())
				compEnvs, compStats := runFan(t, true, async, mk())
				sameMultiset(t, compEnvs, flatEnvs)
				if compStats.Counters["delivered"] != flatStats.Counters["delivered"] {
					t.Fatalf("delivered: compressed %d, flat %d",
						compStats.Counters["delivered"], flatStats.Counters["delivered"])
				}
				if name == "local" && !async {
					if compStats.Counters["compressed_frames"] == 0 {
						t.Fatal("strict local compressed run decoded no compressed frames")
					}
					wire := compStats.Counters["compressed_wire_bytes"]
					raw := compStats.Counters["compressed_raw_bytes"]
					if wire == 0 || raw <= wire {
						t.Fatalf("compression ratio not superunitary: wire=%d raw=%d", wire, raw)
					}
				}
			})
		}
	}
}

func TestCompressedTCPObserverCounters(t *testing.T) {
	o := obs.New(obs.NewRing(64))
	prog := &fanProgram{rounds: 2}
	part := graph.NewPartition(3, 5)
	cfg := Config{
		Workers:        3,
		Owner:          func(v graph.VertexID) int { return part.Owner(v) },
		Exchange:       NewTCPExchangeFactory(),
		CompressFrames: true,
		Observer:       o,
	}
	if _, err := Run[groupMsg](cfg, prog); err != nil {
		t.Fatal(err)
	}
	s := o.Snapshot()
	if s.CompressedFrames == 0 {
		t.Fatal("observer saw no compressed frame trains over TCP")
	}
	if s.CompressedBytes == 0 || s.CompressedRawBytes <= s.CompressedBytes {
		t.Fatalf("observer compression ratio not superunitary: wire=%d raw=%d",
			s.CompressedBytes, s.CompressedRawBytes)
	}
}

func TestGroupedSnapshotRoundTrip(t *testing.T) {
	store := NewMemCheckpointStore()
	big := groupTestBatch(700)
	frames, _ := compressBatch(4, [][]Envelope[groupMsg]{big}, compressedChunk)
	small := groupTestBatch(2)
	inboxes := []Inbox[groupMsg]{
		{Chunks: [][]Envelope[groupMsg]{small[:1], small[1:]}, Frames: frames},
		{},
	}
	stats := &RunStats{Counters: map[string]int64{"x": 1}}
	if _, err := saveSnapshot(store, 4, inboxes, stats, nil); err != nil {
		t.Fatal(err)
	}
	snap, err := loadSnapshot[groupMsg](store)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Step != 4 {
		t.Fatalf("step = %d, want 4", snap.Step)
	}
	rows := snap.inboxRows(2)
	if len(rows[0].Frames) != len(frames) {
		t.Fatalf("grouped restore kept %d frames, want %d", len(rows[0].Frames), len(frames))
	}
	sameMultiset(t, flatten(rows[0].Chunks), small)
	var decoded []Envelope[groupMsg]
	for _, fp := range rows[0].Frames {
		_, _, batch, err := DecodeCompressedFrame[groupMsg](fp)
		if err != nil {
			t.Fatal(err)
		}
		decoded = append(decoded, batch...)
	}
	sameMultiset(t, decoded, big)
	if !rows[1].empty() {
		t.Fatalf("worker 1 restored %d envelopes and %d frames, want none", len(rows[1].Chunks), len(rows[1].Frames))
	}
}

func TestCorruptGroupedSnapshot(t *testing.T) {
	// A snapshot whose grouped frames are internally inconsistent must fail
	// the resume path with ErrCorruptCheckpoint — the CRC seal is intact, so
	// this exercises the frame-level validation, not the checksum.
	store := NewMemCheckpointStore()
	inboxes := []Inbox[groupMsg]{{Frames: [][]byte{{0xde, 0xad, 0xbe, 0xef}}}}
	stats := &RunStats{Counters: map[string]int64{}}
	if _, err := saveSnapshot(store, 2, inboxes, stats, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := loadSnapshot[groupMsg](store); !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("loadSnapshot error = %v, want ErrCorruptCheckpoint", err)
	}
}

func TestCompressedGoldenFrames(t *testing.T) {
	// Committed golden wire frames pin the format across refactors: an
	// encoder change that alters bytes on the wire must be deliberate
	// (regenerate with -update) and visible in review.
	cases := []struct {
		name string
		enc  func() []byte
	}{
		{"compressed_group_v1.golden", func() []byte {
			return AppendCompressedFrame(nil, 9, groupTestBatch(24))
		}},
		{"compressed_fallback_v1.golden", func() []byte {
			return AppendCompressedFrame(nil, 3, wireTestBatch(10))
		}},
		{"compressed_chunked_v1.golden", func() []byte {
			out, _ := appendCompressedFrames(nil, 5, [][]Envelope[groupMsg]{groupTestBatch(40)}, 16)
			return out
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join("testdata", tc.name)
			got := tc.enc()
			if *updateGolden {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("encoding drifted from golden %s (%dB vs %dB); if intentional, regenerate with -update",
					tc.name, len(got), len(want))
			}
		})
	}
}

func TestCompressedGoldenDecodes(t *testing.T) {
	// The committed group-codec golden must decode to exactly the batch that
	// produced it — guarding the decoder half independently of the encoder.
	want := groupTestBatch(24)
	data, err := os.ReadFile(filepath.Join("testdata", "compressed_group_v1.golden"))
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	step, more, out, err := DecodeCompressedFrame[groupMsg](data[4:])
	if err != nil {
		t.Fatal(err)
	}
	if step != 9 || more {
		t.Fatalf("step=%d more=%v, want 9 false", step, more)
	}
	sameMultiset(t, out, want)
}

func BenchmarkCompressedFrameEncode(b *testing.B) {
	batch := groupTestBatch(256)
	buf := AppendCompressedFrame(nil, 1, batch)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendCompressedFrame(buf[:0], 1, batch)
	}
}

func BenchmarkCompressedFrameDecode(b *testing.B) {
	batch := groupTestBatch(256)
	buf := AppendCompressedFrame(nil, 1, batch)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := DecodeCompressedFrame[groupMsg](buf[4:]); err != nil {
			b.Fatal(err)
		}
	}
}
