package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestNilObserverIsSafe(t *testing.T) {
	var o *Observer
	o.RunStarted(4, 0)
	o.Resumed(2, time.Millisecond)
	o.StepStarted(0)
	o.StepComputed(0, []time.Duration{time.Millisecond}, 1, 2)
	o.ExchangeDone(0, time.Millisecond, 2)
	o.ExchangeFailed(0, errors.New("x"))
	o.CheckpointSaved(0, 128, time.Millisecond)
	o.Aborted(1, errors.New("x"))
	o.RunEnded(3, 10, map[string]int64{"a": 1}, nil, nil, nil)
	o.RecordWorkerLoads([]float64{1, 2})
	o.AddFrameSent(10)
	o.AddFrameRecv(10)
	if got := o.Steps(); got != nil {
		t.Fatalf("nil observer Steps = %v", got)
	}
	if got := o.Counters(); got != nil {
		t.Fatalf("nil observer Counters = %v", got)
	}
	if s := o.Snapshot(); s.Events != 0 {
		t.Fatalf("nil observer Snapshot = %+v", s)
	}
	o.WriteReport(io.Discard)
}

func TestRingOrderAndWraparound(t *testing.T) {
	r := NewRing(4)
	o := New(r)
	for step := 0; step < 6; step++ {
		o.StepStarted(step)
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("ring kept %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		wantStep := i + 2 // steps 2..5 survive
		if ev.Type != EventStepStart || ev.Step != wantStep {
			t.Fatalf("event %d = %+v, want step_start step=%d", i, ev, wantStep)
		}
		if i > 0 && evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("events out of order: %d then %d", evs[i-1].Seq, evs[i].Seq)
		}
	}

	// Under capacity: all retained, in order.
	r2 := NewRing(10)
	o2 := New(r2)
	o2.StepStarted(0)
	o2.StepStarted(1)
	if evs := r2.Events(); len(evs) != 2 || evs[0].Step != 0 || evs[1].Step != 1 {
		t.Fatalf("partial ring events = %+v", evs)
	}
}

func TestObserverLifecycle(t *testing.T) {
	r := NewRing(64)
	o := New(r)
	o.RunStarted(2, 0)
	o.StepStarted(0)
	o.StepComputed(0, []time.Duration{2 * time.Millisecond, 5 * time.Millisecond}, 3, 7)
	o.ExchangeDone(0, time.Millisecond, 7)
	o.CheckpointSaved(0, 256, time.Millisecond)
	o.RunEnded(1, 7, map[string]int64{"gpsi_generated": 7}, []time.Duration{time.Millisecond, time.Millisecond}, []int64{3, 4}, nil)
	o.RecordWorkerLoads([]float64{1.5, 2.5})

	steps := o.Steps()
	if len(steps) != 1 {
		t.Fatalf("steps = %+v", steps)
	}
	st := steps[0]
	if st.Compute != 5*time.Millisecond || st.Processed != 3 || st.Produced != 7 || st.Exchange != time.Millisecond {
		t.Fatalf("step metrics = %+v", st)
	}
	if got := o.Counters()["gpsi_generated"]; got != 7 {
		t.Fatalf("counters[gpsi_generated] = %d", got)
	}

	s := o.Snapshot()
	if !s.Ended || s.Supersteps != 1 || s.MessagesTotal != 7 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.CheckpointSaves != 1 || s.CheckpointBytes != 256 {
		t.Fatalf("checkpoint counters = %+v", s)
	}
	if len(s.WorkerLoads) != 2 || s.WorkerLoads[1] != 2.5 {
		t.Fatalf("worker loads = %v", s.WorkerLoads)
	}

	var wantSeq uint64
	for _, ev := range r.Events() {
		wantSeq++
		if ev.Seq != wantSeq {
			t.Fatalf("seq gap: got %d want %d", ev.Seq, wantSeq)
		}
	}
	if wantSeq != 6 {
		t.Fatalf("emitted %d events, want 6", wantSeq)
	}

	var buf bytes.Buffer
	o.WriteReport(&buf)
	out := buf.String()
	for _, want := range []string{"1 supersteps", "checkpoints: 1 saves", "gpsi_generated=7", "w1=2.5"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestFrameCounters(t *testing.T) {
	o := New(nil)
	o.AddFrameSent(100)
	o.AddFrameSent(50)
	o.AddFrameRecv(100)
	s := o.Snapshot()
	if s.WireFramesSent != 2 || s.WireFramesRecv != 1 {
		t.Fatalf("frame counters = %+v", s)
	}
	if s.BytesSent != 150 || s.BytesRecv != 100 {
		t.Fatalf("byte counters = %+v", s)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONL(&buf)
	o := New(sink)
	o.RunStarted(2, 0)
	o.StepStarted(0)
	o.ExchangeFailed(0, errors.New("boom"))
	o.RunEnded(1, 5, nil, nil, nil, nil)
	if err := sink.Err(); err != nil {
		t.Fatalf("sink error: %v", err)
	}

	// Every line is a standalone JSON object.
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4:\n%s", len(lines), buf.String())
	}
	for _, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
	}

	evs, err := DecodeJSONL(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(evs) != 4 {
		t.Fatalf("decoded %d events, want 4", len(evs))
	}
	wantTypes := []EventType{EventRunStart, EventStepStart, EventRetry, EventRunEnd}
	for i, ev := range evs {
		if ev.Type != wantTypes[i] {
			t.Fatalf("event %d type = %v, want %v", i, ev.Type, wantTypes[i])
		}
	}
	if evs[2].Err != "boom" {
		t.Fatalf("retry event = %+v", evs[2])
	}
	if evs[3].Messages != 5 {
		t.Fatalf("run_end event = %+v", evs[3])
	}
}

func TestEventTypeNames(t *testing.T) {
	for tp := EventRunStart; tp <= EventRunEnd; tp++ {
		name := tp.String()
		if name == "unknown" || name == "" {
			t.Fatalf("event type %d has no name", tp)
		}
		if typeByName(name) != tp {
			t.Fatalf("typeByName(%q) = %v, want %v", name, typeByName(name), tp)
		}
	}
	if EventType(0).String() != "unknown" || EventType(200).String() != "unknown" {
		t.Fatal("out-of-range event types must stringify as unknown")
	}
}

func TestNopSinkAndNilObserverAllocFree(t *testing.T) {
	o := New(NopSink{})
	if allocs := testing.AllocsPerRun(100, func() {
		o.AddFrameSent(64)
		o.AddFrameRecv(64)
		o.StepStarted(1)
	}); allocs != 0 {
		t.Fatalf("NopSink observer hot calls allocate %v/op", allocs)
	}
	var nilObs *Observer
	if allocs := testing.AllocsPerRun(100, func() {
		nilObs.AddFrameSent(64)
		nilObs.StepStarted(1)
		nilObs.ExchangeDone(1, time.Millisecond, 3)
	}); allocs != 0 {
		t.Fatalf("nil observer calls allocate %v/op", allocs)
	}
}

func TestDebugServer(t *testing.T) {
	o := New(nil)
	o.RunStarted(1, 0)
	o.RunEnded(2, 9, map[string]int64{"k": 3}, nil, nil, nil)
	PublishExpvar("psgl_test", o)
	// Rebinding the same name must not panic.
	PublishExpvar("psgl_test", o)

	addr, err := ServeDebug("127.0.0.1:0", o)
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	for _, path := range []string{"/debug/vars", "/debug/obs", "/debug/pprof/"} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		if path == "/debug/obs" {
			var s Snapshot
			if err := json.Unmarshal(body, &s); err != nil {
				t.Fatalf("obs snapshot not JSON: %v\n%s", err, body)
			}
			if !s.Ended || s.MessagesTotal != 9 || s.Counters["k"] != 3 {
				t.Fatalf("obs snapshot = %+v", s)
			}
		}
	}
}
