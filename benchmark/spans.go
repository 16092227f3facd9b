package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark around a call it makes
// into a layer. Spans of one operation share Op; Parent is the ID of the span
// that caused this one (-1 for an operation's root). Synthetic spans were not
// timed where they ran: their duration comes from a number the layer reported
// (an engine wall_ms, an obs superstep row) or from replaying the call
// standalone, and they are laid end to end inside their parent.
type span struct {
	ID        int    `json:"id"`
	Parent    int    `json:"parent"`
	Op        int    `json:"op"`
	Name      string `json:"name"`
	StartNS   int64  `json:"start_ns"`
	EndNS     int64  `json:"end_ns"`
	Synthetic bool   `json:"synthetic,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced pass runs the same code without the bookkeeping.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newOp allocates an operation identifier.
func (t *tracer) newOp() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// begin opens a span now and returns its ID (-1 on a nil tracer).
func (t *tracer) begin(parent, op int, name string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, StartNS: now, EndNS: now})
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNS = now
	t.mu.Unlock()
}

// addSynthetic appends child spans of the given durations laid end to end
// from the parent's start, clipped to the parent's interval, and returns
// their IDs (-1 for a part that did not fit).
func (t *tracer) addSynthetic(parent int, parts []namedDuration) []int {
	if t == nil || parent < 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent]
	at := p.StartNS
	ids := make([]int, len(parts))
	for i, part := range parts {
		end := at + part.d.Nanoseconds()
		if end > p.EndNS {
			end = p.EndNS
		}
		if end <= at {
			ids[i] = -1
			continue
		}
		ids[i] = len(t.spans)
		t.spans = append(t.spans, span{ID: ids[i], Parent: parent, Op: p.Op, Name: part.name,
			StartNS: at, EndNS: end, Synthetic: true})
		at = end
	}
	return ids
}

type namedDuration struct {
	name string
	d    time.Duration
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// covered returns how much of [lo, hi) the intervals cover, overlaps counted
// once.
func covered(lo, hi int64, intervals [][2]int64) int64 {
	sort.Slice(intervals, func(i, j int) bool { return intervals[i][0] < intervals[j][0] })
	var total int64
	at := lo
	for _, iv := range intervals {
		s, e := iv[0], iv[1]
		if s < at {
			s = at
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
			at = e
		}
	}
	return total
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval that its child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNS, s.EndNS})
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		self := (s.EndNS - s.StartNS) - covered(s.StartNS, s.EndNS, children[s.ID])
		out[s.Name] += time.Duration(self)
	}
	return out
}

// coverage is the share of the operations' wall time (the root spans) that is
// attributed to a leaf span, i.e. to a timed or reported call into a layer
// and not to the self time of a span that merely contains others.
func coverage(spans []span) float64 {
	hasChild := map[int]bool{}
	for _, s := range spans {
		if s.Parent >= 0 {
			hasChild[s.Parent] = true
		}
	}
	var wall, leaf int64
	for _, s := range spans {
		d := s.EndNS - s.StartNS
		if s.Parent < 0 {
			wall += d
		} else if !hasChild[s.ID] {
			leaf += d
		}
	}
	if wall == 0 {
		return 0
	}
	return float64(leaf) / float64(wall)
}

// writeSpans writes the spans as one JSON array, creating path's directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
