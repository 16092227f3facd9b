package bsp

// Tests for the one run loop: what the stepped policy promises about a
// superstep (src-ordered inboxes, a skewed frame fails the step, rows that
// exclude sends), what the pipelined policy promises an idle peer, and an
// exhaustive walk of the credit detector's interleavings in both policies.

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"psgl/internal/graph"
	"psgl/internal/obs"
)

// orderProgram sends out[src][dst] from src's Init and records, per worker,
// the sequence Process sees.
type orderProgram struct {
	out  [][][]wint
	seen [][]wint // seen[w] is touched only by worker w
}

func (p *orderProgram) Init(ctx *Context[wint]) {
	for dst, msgs := range p.out[ctx.Worker()] {
		for _, m := range msgs {
			ctx.Send(graph.VertexID(dst), m)
		}
	}
}

func (p *orderProgram) Process(ctx *Context[wint], env Envelope[wint]) {
	p.seen[ctx.Worker()] = append(p.seen[ctx.Worker()], env.Msg)
}

// reverseTransport holds the first `expect` Sends and then delivers them in
// reverse order; later Sends pass straight through.
type reverseTransport struct {
	h      hooks[wint]
	expect int
	mu     sync.Mutex
	held   []func()
}

func (r *reverseTransport) Send(_ context.Context, src, dst, ord int, batch [][]Envelope[wint]) (bool, error) {
	fire := func() {
		r.h.deliver(src, dst, ord, Inbox[wint]{Chunks: batch})
		r.h.ack(src)
	}
	r.mu.Lock()
	if r.expect == 0 {
		r.mu.Unlock()
		fire()
		return false, nil
	}
	r.held = append(r.held, fire)
	held := r.held
	if len(held) < r.expect {
		r.mu.Unlock()
		return false, nil
	}
	r.expect, r.held = 0, nil
	r.mu.Unlock()
	for i := len(held) - 1; i >= 0; i-- {
		held[i]()
	}
	return false, nil
}

func (*reverseTransport) Close() error { return nil }

// TestStepInboxOrderIdenticalAcrossTransports: a superstep's inbox is the
// src-ordered concatenation of what each worker sent, whatever order frames
// arrive in — the same sequence in-process, over TCP, and when every frame of
// the step arrives in reverse.
func TestStepInboxOrderIdenticalAcrossTransports(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 4; trial++ {
		k := 2 + rng.Intn(3)
		out := make([][][]wint, k)
		want := make([][]wint, k)
		frames := 0
		for src := 0; src < k; src++ {
			out[src] = make([][]wint, k)
			for dst := 0; dst < k; dst++ {
				for i := rng.Intn(8); i > 0; i-- {
					out[src][dst] = append(out[src][dst], wint(rng.Int31()))
				}
				if len(out[src][dst]) > 0 {
					frames++
				}
			}
		}
		for dst := 0; dst < k; dst++ {
			for src := 0; src < k; src++ {
				want[dst] = append(want[dst], out[src][dst]...)
			}
		}
		cfg := Config{Workers: k, Owner: func(v graph.VertexID) int { return int(v) }}
		check := func(name string, run func(prog *orderProgram) error) {
			prog := &orderProgram{out: out, seen: make([][]wint, k)}
			if err := run(prog); err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			if !reflect.DeepEqual(prog.seen, want) {
				t.Errorf("trial %d %s: inboxes %v, want %v", trial, name, prog.seen, want)
			}
		}
		for name, f := range map[string]ExchangeFactory{"local": nil, "tcp": NewTCPExchangeFactory()} {
			check(name, func(prog *orderProgram) error {
				c := cfg
				c.Exchange = f
				_, err := Run[wint](c, prog)
				return err
			})
		}
		check("reversed", func(prog *orderProgram) error {
			a := newTestRun[wint](cfg, prog, false)
			a.transport = &reverseTransport{h: a.hooks(), expect: frames}
			return a.drive(context.Background())
		})
	}
}

// skewTransport delivers in-process, stamping one pair's frame with the wrong
// superstep — and, like the TCP reader, acking it all the same.
type skewTransport struct{ h hooks[wint] }

func (s skewTransport) Send(_ context.Context, src, dst, ord int, batch [][]Envelope[wint]) (bool, error) {
	if src == 1 && dst == 0 {
		ord++
	}
	s.h.deliver(src, dst, ord, Inbox[wint]{Chunks: batch})
	s.h.ack(src)
	return false, nil
}

func (skewTransport) Close() error { return nil }

// TestStepNeverCompletesOverASkewedFrame: a step-skewed frame leaves its slot
// empty but is acked, so every worker goes idle and every Send's credit comes
// back with the failure pending; the step must fail every time, never publish
// an inbox missing the pair.
func TestStepNeverCompletesOverASkewedFrame(t *testing.T) {
	for i := 0; i < 200; i++ {
		var processed atomic.Int64
		prog := &funcProgram[wint]{
			init:    func(ctx *Context[wint]) { ctx.Send(graph.VertexID(1-ctx.Worker()), 1) },
			process: func(*Context[wint], Envelope[wint]) { processed.Add(1) },
		}
		a := newTestRun[wint](Config{Workers: 2, Owner: func(v graph.VertexID) int { return int(v) }}, prog, false)
		a.transport = skewTransport{a.hooks()}
		err := a.drive(context.Background())
		if err == nil || !strings.Contains(err.Error(), "step skew") || processed.Load() != 0 {
			t.Fatalf("iteration %d: step completed over a skewed frame: err %v, %d messages processed", i, err, processed.Load())
		}
	}
}

// slowTransport makes every Send cost a fixed wall time.
type slowTransport struct {
	inner transport[wint]
	cost  time.Duration
}

func (s slowTransport) Send(ctx context.Context, src, dst, ord int, batch [][]Envelope[wint]) (bool, error) {
	time.Sleep(s.cost)
	return s.inner.Send(ctx, src, dst, ord, batch)
}

func (s slowTransport) Close() error { return s.inner.Close() }

// TestStepRowExcludesSends: a worker's per-step time ends when its compute
// does (SimulatedMakespan, Figure 8, is built from these rows); what its sends
// cost shows up in the step's exchange time instead.
func TestStepRowExcludesSends(t *testing.T) {
	const cost = 40 * time.Millisecond
	o := obs.New(nil)
	prog, cfg := newEcho(10, 1, 2)
	cfg.Observer = o
	a := newTestRun[wint](cfg, prog, false)
	a.transport = slowTransport{inner: localTransport[wint]{h: a.hooks()}, cost: cost}
	if err := a.drive(context.Background()); err != nil {
		t.Fatal(err)
	}
	steps := o.Steps()
	if len(steps) != 3 || len(a.stats.PerStepWorkerTime) != 3 {
		t.Fatalf("%d observed steps, %d rows, want 3 and 3", len(steps), len(a.stats.PerStepWorkerTime))
	}
	for s, row := range a.stats.PerStepWorkerTime {
		for w, d := range row {
			if d >= cost/2 {
				t.Errorf("step %d worker %d: row time %v includes a %v send", s, w, d, cost)
			}
		}
	}
	for _, s := range steps[:2] {
		if s.Exchange < cost/2 {
			t.Errorf("step %d: exchange %v does not cover a %v send", s.Step, s.Exchange, cost)
		}
	}
	if steps[2].Exchange != 0 {
		t.Errorf("final step reports an exchange of %v; nothing was pending", steps[2].Exchange)
	}
}

// TestPipelinedIdlePeerIsFedMidBurst: a pipelined worker ships what it holds
// for an idle peer while its own queue still has work. Worker 0 walks a chain
// of its own messages; each step sends worker 1 one message, and the next
// step re-queues itself until worker 1 has processed it, for at most 5 s. A
// worker that ships only once its queue runs dry never lets the chain go on.
func TestPipelinedIdlePeerIsFedMidBurst(t *testing.T) {
	const steps = 20
	for name, exchange := range map[string]func() ExchangeFactory{
		"local": func() ExchangeFactory { return nil },
		"tcp":   NewTCPExchangeFactory,
	} {
		var (
			peerDone atomic.Int64 // messages worker 1 has processed
			deadline = time.Now().Add(5 * time.Second)
			stalled  atomic.Int64 // the step that waited out the deadline, or -1
		)
		stalled.Store(-1)
		prog := &funcProgram[wint]{
			// Vertex 0 (worker 0) carries the chain, vertex 1 (worker 1) the
			// peer's messages; a chain message is the step it waits on.
			init: func(ctx *Context[wint]) {
				if ctx.Worker() == 0 {
					ctx.Send(1, 0)
					ctx.Send(0, 1)
				}
			},
			process: func(ctx *Context[wint], env Envelope[wint]) {
				step := int64(env.Msg)
				switch {
				case env.Dest == 1:
					peerDone.Add(1)
				case peerDone.Load() < step && time.Now().After(deadline):
					stalled.Store(step)
				case peerDone.Load() < step:
					runtime.Gosched() // let worker 1 run on a one-core box
					ctx.Send(0, env.Msg)
				case step < steps:
					ctx.Send(1, env.Msg)
					ctx.Send(0, env.Msg+1)
				}
			},
		}
		cfg := Config{Workers: 2, Owner: func(v graph.VertexID) int { return int(v) }, AsyncExchange: true, Exchange: exchange()}
		if _, err := Run[wint](cfg, prog); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s := stalled.Load(); s >= 0 {
			t.Errorf("%s: step %d waited 5 s for worker 1, which was idle with its message still buffered at worker 0", name, s)
		}
		if got := peerDone.Load(); got != steps {
			t.Errorf("%s: worker 1 processed %d messages, want %d", name, got, steps)
		}
	}
}

// --- the detector's interleavings -----------------------------------------

// The events of the model below. A worker charges a frame, the transport
// delivers and then acks it, a worker reaches its wait loop (taking its queue
// if one is there, parking idle if not), and the coordinator's scan — epoch
// read, idle pass, credit pass — is three events of its own, because the real
// scan is not atomic either.
type detEvent uint8

const (
	evCharge0 detEvent = iota
	evCharge1
	evDeliver0
	evDeliver1
	evAck0
	evAck1
	evPark0
	evPark1
	evScan     // wake (consuming a nudge unless this is the first scan) and read the epoch
	evScanIdle // the idle pass
	evScanCred // the credit pass and the epoch re-read
)

func (e detEvent) String() string {
	return [...]string{"charge0", "charge1", "deliver0", "deliver1", "ack0", "ack1", "park0", "park1", "scan", "scan-idle", "scan-credit"}[e]
}

const (
	coordReady   = iota // may scan
	coordEpoch          // epoch read, idle pass next
	coordIdle           // idle pass said yes, credit pass next
	coordBlocked        // verdict was no: waiting for a nudge
	coordDone           // verdict was yes
)

// detModel plays both workers, the transport and the coordinator against a
// real run's detector and deliver/ack hooks, one event at a time, from
// the test's goroutine. Each worker may send up to two frames, at any time it
// is not parked — before its first park or, pipelined, after a delivery woke
// it.
type detModel struct {
	a       *run[wint]
	charged [2]int // frames worker w has charged
	sent    [2]int // … the transport has delivered
	acked   [2]int // … and acked
	parked  [2]bool
	coord   int
	epoch   uint64 // what the scan in progress read before its passes

	path      []detEvent
	pos       int
	frozen    bool // the path ran out: the rest of the execution is discarded
	key       string
	enabled   []detEvent
	violation string
}

func newDetModel(stepped bool) *detModel {
	prog := &funcProgram[wint]{}
	return &detModel{a: newTestRun[wint](Config{Workers: 2, AsyncExchange: !stepped}, prog, false)}
}

// finished is the ground truth a "quiescent" verdict claims: every charged
// frame delivered, every worker parked with nothing queued.
func (m *detModel) finished() bool {
	return m.sent == m.charged && m.parked[0] && m.parked[1]
}

func (m *detModel) qlen(w int) int {
	wk := m.a.workers[w]
	wk.mu.Lock()
	defer wk.mu.Unlock()
	return chunksLen(wk.queue.Chunks)
}

// freeze records the state the path led to — everything that decides what can
// happen next — and which events can.
func (m *detModel) freeze() {
	if m.frozen {
		return
	}
	m.frozen = true
	if m.coord != coordEpoch && m.coord != coordIdle {
		m.epoch = 0
	}
	m.key = fmt.Sprint(m.charged, m.sent, m.acked, m.parked, m.coord, m.epoch, m.qlen(0), m.qlen(1),
		len(m.a.nudge), m.a.det.activity.Load())
	for w := 0; w < 2; w++ {
		if !m.parked[w] {
			m.enabled = append(m.enabled, evPark0+detEvent(w))
			if m.charged[w] < 2 {
				m.enabled = append(m.enabled, evCharge0+detEvent(w))
			}
		}
		if m.sent[w] < m.charged[w] && m.acked[w] == m.sent[w] {
			m.enabled = append(m.enabled, evDeliver0+detEvent(w))
		}
		if m.acked[w] < m.sent[w] {
			m.enabled = append(m.enabled, evAck0+detEvent(w))
		}
	}
	switch {
	case m.coord == coordReady, m.coord == coordBlocked && len(m.a.nudge) > 0:
		m.enabled = append(m.enabled, evScan)
	case m.coord == coordEpoch:
		m.enabled = append(m.enabled, evScanIdle)
	case m.coord == coordIdle:
		m.enabled = append(m.enabled, evScanCred)
	}
}

// play applies the path's events until it runs out or, inside a scan, until
// the next scan marker has been consumed.
func (m *detModel) play(inScan bool) {
	for m.pos < len(m.path) {
		e := m.path[m.pos]
		m.pos++
		if inScan && (e == evScanIdle || e == evScanCred) {
			return
		}
		m.apply(e)
	}
	m.freeze()
}

func (m *detModel) apply(e detEvent) {
	a, w := m.a, int(e)&1
	switch e {
	case evCharge0, evCharge1:
		a.det.frameSent(w)
		m.charged[w]++
	case evDeliver0, evDeliver1:
		// The second frame of a stepped worker is its self frame; everything
		// else goes to the peer.
		dst := 1 - w
		if a.stepped && m.sent[w] == 1 {
			dst = w
		}
		a.deliver(w, dst, 0, Inbox[wint]{Chunks: [][]Envelope[wint]{{{Msg: 1}}}})
		m.sent[w]++
		if !a.stepped {
			m.parked[dst] = false // the enqueue woke it
		}
	case evAck0, evAck1:
		a.ack(w)
		m.acked[w]++
	case evPark0, evPark1:
		// The worker's wait loop: under the queue lock, take the queue if
		// there is one, else flag idle, nudge, and park.
		wk := a.workers[w]
		wk.mu.Lock()
		if wk.queue.empty() {
			a.det.setIdle(w, true)
			a.nudgeCoordinator()
			m.parked[w] = true
		} else {
			wk.queue = Inbox[wint]{}
		}
		wk.mu.Unlock()
	case evScan:
		if m.coord == coordBlocked {
			<-a.nudge
		}
		m.coord, m.epoch = coordEpoch, a.det.activity.Load()
		a.det.onScan = func() {
			m.play(true)
			if !m.frozen {
				m.coord++ // the pass the marker stood for runs as soon as this returns
			}
		}
		verdict := a.det.quiescent()
		a.det.onScan = nil
		switch {
		case m.frozen:
		case !verdict:
			m.coord = coordBlocked
		case !m.finished():
			m.violation = fmt.Sprintf("quiescent with charged %v delivered %v parked %v", m.charged, m.sent, m.parked)
		default:
			m.coord = coordDone
		}
	}
}

func replayDetModel(stepped bool, path []detEvent) *detModel {
	m := newDetModel(stepped)
	m.path = path
	m.play(false)
	return m
}

// TestDetectorInterleavings walks every interleaving of {charge credit,
// deliver (stage, or enqueue), ack, go idle, the three phases of a
// coordinator scan} for 2 workers × up to 2 frames each, in both policies —
// the detector decides every boundary, so its verdict must never be
// "quiescent" with a frame undelivered or a worker mid-burst, and must always
// be reached once nothing is left (a coordinator blocked without a nudge
// while everything is finished is the lost wake-up that hung PR 7).
func TestDetectorInterleavings(t *testing.T) {
	for _, stepped := range []bool{true, false} {
		t.Run(fmt.Sprintf("stepped=%v", stepped), func(t *testing.T) {
			seen := map[string]bool{}
			terminals := 0
			var walk func(path []detEvent)
			walk = func(path []detEvent) {
				if t.Failed() {
					return
				}
				m := replayDetModel(stepped, path)
				if m.violation != "" {
					t.Errorf("%s after %v", m.violation, path)
					return
				}
				if seen[m.key] {
					return
				}
				seen[m.key] = true
				if len(m.enabled) == 0 {
					terminals++
					if m.coord != coordDone {
						t.Errorf("hang: nothing left to happen and the coordinator never saw quiescence (state %d) after %v", m.coord, path)
					}
					return
				}
				for _, e := range m.enabled {
					walk(append(path[:len(path):len(path)], e))
				}
			}
			walk(nil)
			if terminals == 0 || len(seen) < 1000 {
				t.Fatalf("walk covered %d states and %d terminal ones: the model exercised nothing", len(seen), terminals)
			}
			t.Logf("%d states, %d terminal", len(seen), terminals)
		})
	}

	// The schedule that hung PR 7, spelled out: both workers idle, the scan
	// sees credit outstanding and the coordinator blocks with every idle-nudge
	// consumed; only then does the transport ack. The ack must wake it.
	for _, stepped := range []bool{true, false} {
		late := []detEvent{evCharge0, evPark0, evDeliver0, evPark1}
		if !stepped {
			late = append(late, evPark1) // the first took the delivery, this one parks
		}
		late = append(late, evScan, evScanIdle, evScanCred, evScan, evScanIdle, evScanCred, evAck0)
		m := replayDetModel(stepped, late)
		if m.coord != coordBlocked || !reflect.DeepEqual(m.enabled, []detEvent{evScan}) {
			t.Fatalf("stepped=%v: after the late ack the coordinator is in state %d with %v enabled, want blocked with a scan pending",
				stepped, m.coord, m.enabled)
		}
		if m = replayDetModel(stepped, append(late, evScan, evScanIdle, evScanCred)); m.coord != coordDone {
			t.Fatalf("stepped=%v: the scan after the late ack ended in state %d, want done", stepped, m.coord)
		}
	}
}

// TestSteppedInboxFreedOnceDrained: a superstep's inbox belongs to the worker
// draining it, chunk by chunk, and nothing else keeps it — once superstep s+1
// is computing, no storage of superstep s's inboxes is reachable. The messages
// are pointers to finalizable payloads, so an inbox retained anywhere (a
// recycled burst, a staged row, a sender's buffer) shows as payloads the
// collector cannot free.
func TestSteppedInboxFreedOnceDrained(t *testing.T) {
	type payload struct{ pad [64]byte }
	const workers, perWorker = 2, 500
	var freed atomic.Int64
	prog := &funcProgram[*payload]{
		init: func(ctx *Context[*payload]) {
			for i := 0; i < perWorker; i++ {
				p := new(payload)
				runtime.SetFinalizer(p, func(*payload) { freed.Add(1) })
				ctx.Send(graph.VertexID(i), p)
			}
		},
		process: func(ctx *Context[*payload], env Envelope[*payload]) {
			switch ctx.Step() {
			case 1:
				// Superstep 1 drains the tracked inboxes; one untracked message
				// keeps the run alive for a superstep 2.
				if env.Dest == 0 && ctx.Worker() == 0 {
					ctx.Send(0, nil)
				}
			case 2:
				deadline := time.Now().Add(10 * time.Second)
				for freed.Load() < workers*perWorker && time.Now().Before(deadline) {
					runtime.GC()
					time.Sleep(time.Millisecond)
				}
				if got := freed.Load(); got != workers*perWorker {
					t.Errorf("superstep 2 is computing and %d of superstep 1's %d inbox payloads are still reachable", workers*perWorker-got, workers*perWorker)
				}
			}
		},
	}
	cfg := Config{Workers: workers, Owner: func(v graph.VertexID) int { return int(v) % workers }}
	if _, err := Run[*payload](cfg, prog); err != nil {
		t.Fatal(err)
	}
}
