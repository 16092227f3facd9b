package bsp

// Frames a receiver cannot trust: counts that lie about what follows, a
// message no DecodeWire accepts in the middle of a peer's frame, and
// snapshots whose frames, in either format, do not decode. A TCP delivery
// stays encoded until its worker processes it, so each of these has to end
// in an error where the bytes are finally read — never a panic, a hang, or
// an allocation the frame's bytes do not pay for.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"psgl/internal/graph"
)

// poisonMsg is wint with one value no receiver decodes: a sender encodes
// poison like any other, and DecodeWire fails on it with errPoisoned.
type poisonMsg int32

const poison poisonMsg = -1

var errPoisoned = errors.New("poisoned message")

func (m *poisonMsg) AppendWire(dst []byte) []byte {
	return binary.LittleEndian.AppendUint32(dst, uint32(*m))
}

func (m *poisonMsg) DecodeWire(src []byte) ([]byte, error) {
	if len(src) < 4 {
		return nil, fmt.Errorf("poisonMsg: truncated (%d bytes)", len(src))
	}
	if *m = poisonMsg(binary.LittleEndian.Uint32(src)); *m == poison {
		return nil, errPoisoned
	}
	return src[4:], nil
}

// lyingCountPayload is a frame payload of n bytes behind its header, all
// 0xff, whose envelope count claims every one of them: envelope 0 already
// fails to decode (a poison message, a flat wireMsg's tail longer than the
// frame, a compressed varint that never ends).
func lyingCountPayload(compressed bool, n int) []byte {
	word := uint32(1)
	if compressed {
		word |= compressedFrameFlag
	}
	p := binary.LittleEndian.AppendUint32(nil, word)
	p = binary.LittleEndian.AppendUint32(p, uint32(n))
	for i := 0; i < n; i++ {
		p = append(p, 0xff)
	}
	return p
}

// TestLyingCountAllocatesNoMoreThanTheFrame: a 1 MB frame whose count claims
// an envelope per byte fails on envelope 0, having allocated less than its
// own size — not the count's worth of envelopes.
func TestLyingCountAllocatesNoMoreThanTheFrame(t *testing.T) {
	decoders := map[string]func(payload []byte) error{
		"flat": func(p []byte) error {
			_, _, err := DecodeWireFrame[poisonMsg](p)
			return err
		},
		"compressed": func(p []byte) error {
			_, _, _, err := DecodeCompressedFrame[poisonMsg](p)
			return err
		},
	}
	for name, decode := range decoders {
		payload := lyingCountPayload(name == "compressed", 1<<20)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := decode(payload)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: a lying count decoded", name)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(len(payload)) {
			t.Errorf("%s: decoding a %d B frame allocated %d B before failing (%v)", name, len(payload), alloc, err)
		}
	}
}

// TestHostileFrameAbortsTheRun: worker 0 sends worker 1 a frame with a poison
// message in its middle, over TCP, in either policy and codec. The run must
// end in an abort that wraps the decode failure, with no goroutine left
// behind; a flat frame's messages ahead of the poison were processed.
func TestHostileFrameAbortsTheRun(t *testing.T) {
	const sent, at = 12, 5
	for _, async := range []bool{false, true} {
		for _, compress := range []bool{false, true} {
			t.Run(fmt.Sprintf("async=%v/compress=%v", async, compress), func(t *testing.T) {
				base := runtime.NumGoroutine()
				var processed int
				prog := &funcProgram[poisonMsg]{
					init: func(ctx *Context[poisonMsg]) {
						for i := 0; ctx.Worker() == 0 && i < sent; i++ {
							m := poisonMsg(i)
							if i == at {
								m = poison
							}
							ctx.Send(1, m)
						}
					},
					process: func(*Context[poisonMsg], Envelope[poisonMsg]) { processed++ },
				}
				cfg := Config{
					Workers: 2, Owner: func(v graph.VertexID) int { return int(v) % 2 },
					Exchange: NewTCPExchangeFactory(), AsyncExchange: async, CompressFrames: compress,
				}
				_, err := Run[poisonMsg](cfg, prog)
				if !errors.Is(err, ErrAborted) || !errors.Is(err, errPoisoned) {
					t.Fatalf("err = %v, want an abort wrapping %v", err, errPoisoned)
				}
				if !compress && processed != at {
					t.Errorf("%d messages processed ahead of the poison at %d", processed, at)
				}
				waitGoroutinesBack(t, base)
			})
		}
	}
}

// TestSnapshotFramesValidatedInTheirOwnFormat: a snapshot keeps a TCP run's
// frames encoded, flat ones included, so loading checks each in its own
// format — valid frames of both restore, a corrupt one of either fails with
// ErrCorruptCheckpoint though the CRC seal is intact.
func TestSnapshotFramesValidatedInTheirOwnFormat(t *testing.T) {
	flat := AppendWireFrame(nil, 3, groupTestBatch(3))[4:]
	compressed, _ := compressBatch(3, [][]Envelope[groupMsg]{groupTestBatch(40)}, compressedChunk)
	corruptFlat := append([]byte(nil), flat[:len(flat)-1]...)
	corruptCompressed := append([]byte(nil), compressed[0]...)
	binary.LittleEndian.PutUint32(corruptCompressed[4:], 1<<20)
	save := func(frames ...[]byte) *MemCheckpointStore {
		store := NewMemCheckpointStore()
		inboxes := []Inbox[groupMsg]{{Frames: frames}}
		if _, err := saveSnapshot(store, 3, inboxes, &RunStats{Counters: map[string]int64{}}, nil); err != nil {
			t.Fatal(err)
		}
		return store
	}
	snap, err := loadSnapshot[groupMsg](save(flat, compressed[0]))
	if err != nil {
		t.Fatalf("valid frames of both formats: %v", err)
	}
	if rows := snap.inboxRows(1); len(rows[0].Frames) != 2 {
		t.Fatalf("restored %d frames, want 2", len(rows[0].Frames))
	}
	for name, frame := range map[string][]byte{"flat": corruptFlat, "compressed": corruptCompressed} {
		if _, err := loadSnapshot[groupMsg](save(flat, frame)); !errors.Is(err, ErrCorruptCheckpoint) {
			t.Errorf("corrupt %s frame: loadSnapshot error = %v, want ErrCorruptCheckpoint", name, err)
		}
	}
}
