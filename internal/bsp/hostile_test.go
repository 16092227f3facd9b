package bsp

// Frames a receiver cannot trust: counts that lie about what follows, a
// message no DecodeWire accepts in the middle of a peer's frame, a frame in
// the compressed format no runtime writes, and snapshots whose frames do not
// decode as flat frames. A TCP delivery
// stays encoded until its worker processes it, so each of these has to end
// in an error where the bytes are finally read — never a panic, a hang, or
// an allocation the frame's bytes do not pay for.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

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
			_, _, err := DecodeCompressedFrame[poisonMsg](p)
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

// compressingConn passes the mesh handshake through and re-encodes every
// later frame with the compressed codec: a frame whose messages all decode,
// in the format no runtime sends.
type compressingConn struct {
	net.Conn
	writes int
}

func (c *compressingConn) Write(p []byte) (int, error) {
	if c.writes++; c.writes == 1 {
		return c.Conn.Write(p)
	}
	step, batch, err := DecodeWireFrame[poisonMsg](p[4:])
	if err == nil {
		_, err = c.Conn.Write(AppendCompressedFrame(nil, step, batch))
	}
	if err != nil {
		return 0, err
	}
	return len(p), nil
}

// TestHostileFrameAbortsTheRun: worker 0 sends worker 1 a frame over TCP, in
// either policy, that worker 1 cannot accept. With compress=false the frame
// is flat with a poison message in its middle: the run must end in an abort
// that wraps the decode failure, after the messages ahead of the poison were
// processed. With compress=true every message decodes but the frame carries
// the compressed flag, which the runtime no longer writes: the run must end
// in an error naming the flag, with nothing of the frame processed. Either
// way no goroutine is left behind.
func TestHostileFrameAbortsTheRun(t *testing.T) {
	const sent, at = 12, 5
	for _, async := range []bool{false, true} {
		for _, compress := range []bool{false, true} {
			t.Run(fmt.Sprintf("async=%v/compress=%v", async, compress), func(t *testing.T) {
				if compress {
					testDialHook = func(src, dst int, addr string, timeout time.Duration) (net.Conn, error) {
						conn, err := net.DialTimeout("tcp", addr, timeout)
						if err == nil && src == 0 && dst == 1 {
							conn = &compressingConn{Conn: conn}
						}
						return conn, err
					}
					defer func() { testDialHook = nil }()
				}
				base := runtime.NumGoroutine()
				var processed int
				prog := &funcProgram[poisonMsg]{
					init: func(ctx *Context[poisonMsg]) {
						for i := 0; ctx.Worker() == 0 && i < sent; i++ {
							m := poisonMsg(i)
							if i == at && !compress {
								m = poison
							}
							ctx.Send(1, m)
						}
					},
					process: func(*Context[poisonMsg], Envelope[poisonMsg]) { processed++ },
				}
				cfg := Config{
					Workers: 2, Owner: func(v graph.VertexID) int { return int(v) % 2 },
					Exchange: NewTCPExchangeFactory(), AsyncExchange: async,
				}
				_, err := Run[poisonMsg](cfg, prog)
				switch {
				case compress && (err == nil || !strings.Contains(err.Error(), "compressed flag")):
					t.Fatalf("err = %v, want the compressed flag refused", err)
				case compress && processed != 0:
					t.Errorf("%d messages of a refused frame processed", processed)
				case !compress && (!errors.Is(err, ErrAborted) || !errors.Is(err, errPoisoned)):
					t.Fatalf("err = %v, want an abort wrapping %v", err, errPoisoned)
				case !compress && processed != at:
					t.Errorf("%d messages processed ahead of the poison at %d", processed, at)
				}
				waitGoroutinesBack(t, base)
			})
		}
	}
}

// TestSnapshotFramesValidatedInTheirOwnFormat: a snapshot keeps a TCP run's
// frames encoded, so loading checks each as the one format the runtime
// writes — valid flat frames restore; a corrupt flat frame, a corrupt
// compressed one and a valid compressed one (a format no run writes) each
// fail with ErrCorruptCheckpoint though the CRC seal is intact.
func TestSnapshotFramesValidatedInTheirOwnFormat(t *testing.T) {
	flat := AppendWireFrame(nil, 3, groupTestBatch(3))[4:]
	flat2 := AppendWireFrame(nil, 3, groupTestBatch(40))[4:]
	compressed := AppendCompressedFrame(nil, 3, groupTestBatch(40))[4:]
	corruptFlat := append([]byte(nil), flat[:len(flat)-1]...)
	corruptCompressed := append([]byte(nil), compressed...)
	binary.LittleEndian.PutUint32(corruptCompressed[4:], 1<<20)
	save := func(frames ...[]byte) *MemCheckpointStore {
		store := NewMemCheckpointStore()
		inboxes := []Inbox[groupMsg]{{Frames: frames}}
		if _, err := saveSnapshot(store, 3, inboxes, &RunStats{Counters: map[string]int64{}}, nil); err != nil {
			t.Fatal(err)
		}
		return store
	}
	snap, err := loadSnapshot[groupMsg](save(flat, flat2))
	if err != nil {
		t.Fatalf("valid flat frames: %v", err)
	}
	if rows := snap.inboxRows(1); len(rows[0].Frames) != 2 {
		t.Fatalf("restored %d frames, want 2", len(rows[0].Frames))
	}
	for name, frame := range map[string][]byte{"corrupt flat": corruptFlat, "corrupt compressed": corruptCompressed, "valid compressed": compressed} {
		if _, err := loadSnapshot[groupMsg](save(flat, frame)); !errors.Is(err, ErrCorruptCheckpoint) {
			t.Errorf("%s frame: loadSnapshot error = %v, want ErrCorruptCheckpoint", name, err)
		}
	}
}
