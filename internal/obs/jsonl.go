package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// jsonEvent is the wire form of an Event: snake_case names, zero fields
// omitted, the event type as its string name.
type jsonEvent struct {
	Seq      uint64  `json:"seq"`
	ElapsedS float64 `json:"elapsed_s"`
	Type     string  `json:"type"`
	Step     int     `json:"step"`
	DurS     float64 `json:"dur_s,omitempty"`
	Messages int64   `json:"messages,omitempty"`
	Bytes    int64   `json:"bytes,omitempty"`
	Err      string  `json:"err,omitempty"`
	Tag      string  `json:"tag,omitempty"`
}

// JSONL is a sink writing one JSON object per line to an io.Writer — the
// trace-file format behind `psgl-bench … -trace out.jsonl`. Emit is safe for
// concurrent use; encoding errors are remembered and surfaced by Err.
type JSONL struct {
	mu  sync.Mutex
	enc *json.Encoder
	err error
}

// NewJSONL returns a JSONL sink writing to w. The caller owns w's lifetime
// (close the file after the run; JSONL does not buffer).
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{enc: json.NewEncoder(w)}
}

// Emit implements Sink.
func (j *JSONL) Emit(ev Event) {
	rec := jsonEvent{
		Seq:      ev.Seq,
		ElapsedS: ev.Elapsed.Seconds(),
		Type:     ev.Type.String(),
		Step:     ev.Step,
		DurS:     ev.Dur.Seconds(),
		Messages: ev.Messages,
		Bytes:    ev.Bytes,
		Err:      ev.Err,
		Tag:      ev.Tag,
	}
	j.mu.Lock()
	if err := j.enc.Encode(rec); err != nil && j.err == nil {
		j.err = err
	}
	j.mu.Unlock()
}

// Err returns the first write or encode error, if any.
func (j *JSONL) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// DecodeJSONL parses a JSONL trace back into events — the inverse of the
// JSONL sink, for tests and trace tooling. Durations are recovered at
// nanosecond granularity from the fractional-second fields.
func DecodeJSONL(r io.Reader) ([]Event, error) {
	dec := json.NewDecoder(r)
	var out []Event
	for dec.More() {
		var rec jsonEvent
		if err := dec.Decode(&rec); err != nil {
			return out, err
		}
		out = append(out, Event{
			Seq:      rec.Seq,
			Elapsed:  time.Duration(rec.ElapsedS * float64(time.Second)),
			Type:     typeByName(rec.Type),
			Step:     rec.Step,
			Dur:      time.Duration(rec.DurS * float64(time.Second)),
			Messages: rec.Messages,
			Bytes:    rec.Bytes,
			Err:      rec.Err,
			Tag:      rec.Tag,
		})
	}
	return out, nil
}

func typeByName(name string) EventType {
	for t, n := range eventNames {
		if n == name {
			return t
		}
	}
	return 0
}
