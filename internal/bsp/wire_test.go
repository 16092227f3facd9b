package bsp

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"

	"psgl/internal/graph"
)

// wireMsg is a Gpsi-shaped test message implementing WireMessage: fixed
// header fields plus a variable-length tail.
type wireMsg struct {
	A    int32
	B    uint16
	Tail []int32
}

func (m *wireMsg) AppendWire(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(m.A))
	dst = binary.LittleEndian.AppendUint16(dst, m.B)
	dst = append(dst, byte(len(m.Tail)))
	for _, v := range m.Tail {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
	}
	return dst
}

func (m *wireMsg) DecodeWire(src []byte) ([]byte, error) {
	if len(src) < 7 {
		return nil, fmt.Errorf("wireMsg: truncated header")
	}
	m.A = int32(binary.LittleEndian.Uint32(src))
	m.B = binary.LittleEndian.Uint16(src[4:])
	n := int(src[6])
	src = src[7:]
	if len(src) < 4*n {
		return nil, fmt.Errorf("wireMsg: truncated tail")
	}
	m.Tail = m.Tail[:0]
	for i := 0; i < n; i++ {
		m.Tail = append(m.Tail, int32(binary.LittleEndian.Uint32(src[4*i:])))
	}
	return src[4*n:], nil
}

func wireTestBatch(n int) []Envelope[wireMsg] {
	batch := make([]Envelope[wireMsg], n)
	for i := range batch {
		m := wireMsg{A: int32(i) - 3, B: uint16(i * 7)}
		for j := 0; j < i%5; j++ {
			m.Tail = append(m.Tail, int32(i*10+j))
		}
		batch[i] = Envelope[wireMsg]{Dest: graph.VertexID(i * 13), Msg: m}
	}
	return batch
}

func TestMessageIsWire(t *testing.T) {
	if !messageIsWire[wireMsg]() {
		t.Error("messageIsWire[wireMsg] = false, want true")
	}
	if messageIsWire[int]() {
		t.Error("messageIsWire[int] = true, want false")
	}
}

func TestWireFrameRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 17} {
		batch := wireTestBatch(n)
		buf := AppendWireFrame(nil, 4, batch)
		if got := int(binary.LittleEndian.Uint32(buf)); got != len(buf)-4 {
			t.Fatalf("n=%d: length prefix %d, want %d", n, got, len(buf)-4)
		}
		step, out, err := DecodeWireFrame[wireMsg](buf[4:])
		if err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		if step != 4 {
			t.Fatalf("n=%d: step = %d, want 4", n, step)
		}
		if len(out) != n {
			t.Fatalf("n=%d: decoded %d envelopes", n, len(out))
		}
		for i := range out {
			if out[i].Dest != batch[i].Dest || out[i].Msg.A != batch[i].Msg.A ||
				out[i].Msg.B != batch[i].Msg.B || len(out[i].Msg.Tail) != len(batch[i].Msg.Tail) {
				t.Fatalf("n=%d: envelope %d mangled: got %+v want %+v", n, i, out[i], batch[i])
			}
			for j := range out[i].Msg.Tail {
				if out[i].Msg.Tail[j] != batch[i].Msg.Tail[j] {
					t.Fatalf("n=%d: envelope %d tail[%d] = %d, want %d",
						n, i, j, out[i].Msg.Tail[j], batch[i].Msg.Tail[j])
				}
			}
		}
	}
}

func TestWireFrameDecodeErrors(t *testing.T) {
	buf := AppendWireFrame(nil, 1, wireTestBatch(3))
	payload := buf[4:]
	cases := map[string][]byte{
		"truncated header":   payload[:6],
		"truncated envelope": payload[:len(payload)-3],
		"trailing bytes":     append(append([]byte(nil), payload...), 0xff),
	}
	// An implausible count: header claims more envelopes than bytes remain.
	bad := append([]byte(nil), payload...)
	binary.LittleEndian.PutUint32(bad[4:], 1<<28)
	cases["implausible count"] = bad

	for name, p := range cases {
		if _, _, err := DecodeWireFrame[wireMsg](p); err == nil {
			t.Errorf("%s: decode succeeded, want error", name)
		}
	}
}

func TestTCPExchangeWireMessages(t *testing.T) {
	// End-to-end over the real TCP mesh: wireMsg implements WireMessage, so
	// this run exercises the compact codec path, not gob.
	const msgs = 40
	var mu sync.Mutex
	var received []wireMsg
	prog := &funcProgram[wireMsg]{
		init: func(ctx *Context[wireMsg]) {
			if ctx.Worker() == 0 {
				for i := 0; i < msgs; i++ {
					ctx.Send(graph.VertexID(i), wireMsg{A: int32(i), B: 7, Tail: []int32{int32(-i), 99}})
				}
			}
		},
		process: func(ctx *Context[wireMsg], env Envelope[wireMsg]) {
			mu.Lock()
			received = append(received, env.Msg)
			mu.Unlock()
		},
	}
	part := graph.NewPartition(3, 1)
	cfg := Config{
		Workers:  3,
		Owner:    func(v graph.VertexID) int { return part.Owner(v) },
		Exchange: NewTCPExchangeFactory(),
	}
	if _, err := Run[wireMsg](cfg, prog); err != nil {
		t.Fatal(err)
	}
	if len(received) != msgs {
		t.Fatalf("received %d messages, want %d", len(received), msgs)
	}
	seen := map[int32]bool{}
	for _, m := range received {
		if m.B != 7 || len(m.Tail) != 2 || m.Tail[0] != -m.A || m.Tail[1] != 99 {
			t.Fatalf("message mangled in transit: %+v", m)
		}
		seen[m.A] = true
	}
	if len(seen) != msgs {
		t.Fatalf("saw %d distinct messages, want %d", len(seen), msgs)
	}
}

func BenchmarkWireFrameEncode(b *testing.B) {
	batch := wireTestBatch(256)
	buf := AppendWireFrame(nil, 1, batch)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendWireFrame(buf[:0], 1, batch)
	}
}

func BenchmarkWireFrameDecode(b *testing.B) {
	batch := wireTestBatch(256)
	buf := AppendWireFrame(nil, 1, batch)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeWireFrame[wireMsg](buf[4:]); err != nil {
			b.Fatal(err)
		}
	}
}
