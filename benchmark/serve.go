package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"psgl/internal/delta"
	"psgl/internal/graph"
	"psgl/internal/pattern"
	"psgl/internal/serve"
)

// liveServer is a resident serve.Server behind a real loopback listener, plus
// the HTTP client the load generator uses against it.
type liveServer struct {
	srv     *serve.Server
	httpSrv *http.Server
	served  chan struct{}
	base    string
	client  *http.Client
	subs    []*subscriber
}

func startServer(g *graph.Graph, cfg serve.Config) (*liveServer, error) {
	srv, err := serve.New(g, cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ls := &liveServer{
		srv:     srv,
		httpSrv: &http.Server{Handler: srv.Handler()},
		served:  make(chan struct{}),
		base:    "http://" + ln.Addr().String(),
		client:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16, DisableCompression: true}},
	}
	go func() {
		defer close(ls.served)
		ls.httpSrv.Serve(ln) // returns http.ErrServerClosed on close()
	}()
	return ls, nil
}

// close ends the standing queries, drains the server, and waits for the
// listener goroutine.
func (ls *liveServer) close() {
	for _, sub := range ls.subs {
		sub.cancel()
		<-sub.done
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ls.srv.Drain(ctx)  // a timeout only means Close below cuts the stragglers
	ls.httpSrv.Close() // closes the listener and every connection
	<-ls.served
	ls.client.CloseIdleConnections()
}

// responseLine is the union of the NDJSON lines /query answers with: the
// count-only body, an embedding line, and the stream trailer.
type responseLine struct {
	Embedding []graph.VertexID `json:"embedding"`
	Done      bool             `json:"done"`
	Count     int64            `json:"count"`
	WallMS    float64          `json:"wall_ms"`
	Error     string           `json:"error"`
}

// queryResult is one /query round trip as the client saw it.
type queryResult struct {
	Latency time.Duration // request sent → body fully read
	First   time.Duration // request sent → first line read
	Status  int
	Lines   [][]byte     // body lines, the last one being the count body or the trailer
	Last    responseLine // decoded last line
	Err     error
}

func (ls *liveServer) query(q query) queryResult {
	var res queryResult
	start := time.Now()
	resp, err := ls.client.Get(ls.base + q.path())
	if err != nil {
		res.Err = err
		return res
	}
	defer resp.Body.Close()
	res.Status = resp.StatusCode
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			if res.Lines == nil {
				res.First = time.Since(start)
			}
			res.Lines = append(res.Lines, bytes.TrimSpace(line))
		}
		if err != nil {
			if err != io.EOF {
				res.Err = err
			}
			break
		}
	}
	res.Latency = time.Since(start)
	if res.Err == nil && len(res.Lines) == 0 {
		res.Err = fmt.Errorf("empty body")
	}
	if res.Err == nil {
		res.Err = json.Unmarshal(res.Lines[len(res.Lines)-1], &res.Last)
	}
	return res
}

// patternDelta is one subscribed pattern's entry in an /update response.
type patternDelta struct {
	Pattern string `json:"pattern"`
	Gained  int64  `json:"gained"`
	Lost    int64  `json:"lost"`
	Runs    int    `json:"runs"`
	Error   string `json:"error"`
}

// updateResult is one /update round trip.
type updateResult struct {
	Latency time.Duration
	Sent    time.Time
	Status  int
	Body    struct {
		Epoch   uint64         `json:"epoch"`
		Added   int            `json:"added"`
		Removed int            `json:"removed"`
		Noops   int            `json:"noops"`
		Deltas  []patternDelta `json:"deltas"`
		WallMS  float64        `json:"wall_ms"`
	}
	Err error
}

func (ls *liveServer) update(b graph.Batch) updateResult {
	var res updateResult
	body, err := json.Marshal(map[string][][2]graph.VertexID{"add": b.Add, "remove": b.Remove})
	if err != nil {
		res.Err = err
		return res
	}
	res.Sent = time.Now()
	resp, err := ls.client.Post(ls.base+"/update", "application/json", bytes.NewReader(body))
	if err != nil {
		res.Err = err
		return res
	}
	defer resp.Body.Close()
	res.Status = resp.StatusCode
	res.Err = json.NewDecoder(resp.Body).Decode(&res.Body)
	res.Latency = time.Since(res.Sent)
	return res
}

// subscriber is one open POST /subscribe stream. A goroutine reads its lines
// and keeps the totals the update identity is checked against.
type subscriber struct {
	pattern string
	cancel  context.CancelFunc
	done    chan struct{}

	mu        sync.Mutex
	gained    int64 // Σ of the epoch summaries' gained
	lost      int64
	events    int64 // gain/lose embedding lines seen
	lastEpoch uint64
	arrivals  map[uint64]time.Time // epoch → when its summary line arrived
	err       error
}

// subscribe opens a standing query and returns once its hello line arrived.
func (ls *liveServer) subscribe(pat string) (*subscriber, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ls.base+"/subscribe?pattern="+url.QueryEscape(pat), nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := ls.client.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	br := bufio.NewReader(resp.Body)
	hello, err := br.ReadBytes('\n')
	if err != nil || resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("subscribe %s: status %d, hello %q: %v", pat, resp.StatusCode, hello, err)
	}
	sub := &subscriber{pattern: pat, cancel: cancel, done: make(chan struct{}), arrivals: map[uint64]time.Time{}}
	ls.subs = append(ls.subs, sub)
	go func() {
		defer close(sub.done)
		defer resp.Body.Close()
		for {
			line, err := br.ReadBytes('\n')
			if len(bytes.TrimSpace(line)) > 0 {
				sub.handle(line)
			}
			if err != nil {
				if ctx.Err() == nil && err != io.EOF {
					sub.mu.Lock()
					sub.err = err
					sub.mu.Unlock()
				}
				return
			}
		}
	}()
	return sub, nil
}

func (s *subscriber) handle(line []byte) {
	var ev struct {
		Epoch  uint64 `json:"epoch"`
		Op     string `json:"op"`
		Done   bool   `json:"done"`
		Gained int64  `json:"gained"`
		Lost   int64  `json:"lost"`
		Error  string `json:"error"`
		Reason string `json:"reason"`
	}
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := json.Unmarshal(line, &ev); err != nil {
		s.err = fmt.Errorf("subscription line %q: %w", line, err)
		return
	}
	switch {
	case ev.Op != "":
		s.events++
	case ev.Done && ev.Reason != "":
		s.err = fmt.Errorf("subscription closed: %s", ev.Reason)
	case ev.Done:
		if ev.Error != "" {
			s.err = fmt.Errorf("epoch %d: %s", ev.Epoch, ev.Error)
		}
		s.gained += ev.Gained
		s.lost += ev.Lost
		s.lastEpoch = ev.Epoch
		s.arrivals[ev.Epoch] = now
	}
}

// waitEpoch blocks until the subscriber saw the summary of epoch, or timeout.
func (s *subscriber) waitEpoch(epoch uint64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		s.mu.Lock()
		seen, failed := s.lastEpoch >= epoch, s.err != nil
		s.mu.Unlock()
		if seen || failed {
			return seen
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

// standingPatterns are the two standing queries of serve-update.
var standingPatterns = []string{"triangle", "diamond"}

// countObservation is one count query of serve-update with the update epochs
// the client knew of when it was sent and when its answer arrived.
type countObservation struct {
	sentEpoch, recvEpoch int64
	count                int64
}

// serveInstance is a set-up serve-* workload.
type serveInstance struct {
	def      workloadDef
	g        *graph.Graph
	ls       *liveServer
	mix      []query
	mixEdges [][][2]int // pattern edges per mix entry, for embedding checks
	order    []int
	cursor   atomic.Int64
	expected map[string]int64

	// serve-update only.
	batches []graph.Batch
	applied int          // batches posted so far (one updater at a time)
	epoch   atomic.Int64 // latest epoch an update response reported
	mu      sync.Mutex
	gained  map[string]int64 // per standing pattern, Σ over update responses
	lost    map[string]int64
	runs    int64
	// triangles[e] is the triangle count after epoch e per the update
	// responses, triangles[0] being the oracle count of the initial graph.
	triangles    []int64
	observations []countObservation
	// mirror is the traced pass's own overlay, mirrored batches behind.
	mirror   *graph.Overlay
	mirrored int
}

func setupServe(def workloadDef, in inputs) (instance, error) {
	si := &serveInstance{def: def, mix: serveMix, gained: map[string]int64{}, lost: map[string]int64{}}
	si.g = def.Graph.generate(def.GraphSeed)
	var err error
	si.ls, err = startServer(si.g, serve.Config{
		Workers:     def.Workers,
		MaxInFlight: def.MaxInFlight,
		Seed:        def.EngineSeed,
	})
	if err != nil {
		return nil, err
	}
	for _, q := range si.mix {
		p, err := pattern.Parse(q.Pattern)
		if err != nil {
			si.ls.close()
			return nil, err
		}
		si.mixEdges = append(si.mixEdges, p.Edges())
	}
	si.order = queryOrder(si.mix, in.querySeed, 1<<14)
	// Plan warm-up: one query per entry of the mix fills the plan cache.
	for _, q := range si.mix {
		if res := si.ls.query(q); res.Err != nil || res.Status != http.StatusOK {
			si.ls.close()
			return nil, fmt.Errorf("warm-up %s: status %d: %v", q, res.Status, res.Err)
		}
	}
	if def.Updates {
		si.batches = updateBatches(si.g, in.updateSeed, 1<<12, 4)
		for _, pat := range standingPatterns {
			if _, err := si.ls.subscribe(pat); err != nil {
				si.ls.close()
				return nil, err
			}
		}
	}
	return si, nil
}

func (si *serveInstance) graph() *graph.Graph { return si.g }

func (si *serveInstance) goldenPatterns() []string {
	if si.def.Updates {
		return standingPatterns
	}
	return []string{"triangle"}
}

func (si *serveInstance) setExpected(c map[string]int64) {
	si.expected = c
	si.triangles = []int64{c["triangle"]}
}

func (si *serveInstance) close() { si.ls.close() }

// runQuery sends one query of the mix, checks its answer, and records its
// latency (op) and, for a stream, its time to the first line (op2 on
// serve-short).
func (si *serveInstance) runQuery(idx int, rec *recorder, tr *tracer) {
	q := si.mix[idx]
	op := tr.newOp()
	sentEpoch := si.epoch.Load()
	root := tr.begin(-1, op, "http.query")
	res := si.ls.query(q)
	tr.end(root)
	if res.Err != nil || res.Status != http.StatusOK {
		rec.check(false, "%s: status %d: %v", q, res.Status, res.Err)
		return
	}
	// The engine's share of the round trip, as the server reported it, ends
	// when the response does.
	if tr != nil {
		engine := time.Duration(res.Last.WallMS * float64(time.Millisecond))
		tr.addSynthetic(root, []namedDuration{{"http.pre_engine", res.Latency - engine}, {"serve.engine", engine}})
	}
	rec.add("op", res.Latency)
	if q.CountOnly {
		if si.def.Updates {
			// Checked in finish, once every epoch's count is known.
			si.mu.Lock()
			si.observations = append(si.observations, countObservation{sentEpoch, si.epoch.Load(), res.Last.Count})
			si.mu.Unlock()
		} else {
			rec.check(res.Last.Count == si.expected["triangle"], "%s: count %d, oracle %d", q, res.Last.Count, si.expected["triangle"])
		}
		return
	}
	if !si.def.Updates {
		rec.add("op2", res.First)
	}
	err := si.checkStream(q, idx, res)
	rec.check(err == nil, "%s: %v", q, err)
}

// checkStream verifies a stream answer: exactly limit embedding lines, a
// clean trailer agreeing with them, and — while the graph is not changing —
// every embedding an injective image of the pattern in the graph.
func (si *serveInstance) checkStream(q query, idx int, res queryResult) error {
	lines := len(res.Lines) - 1
	if !res.Last.Done || res.Last.Error != "" {
		return fmt.Errorf("bad trailer %q", res.Lines[len(res.Lines)-1])
	}
	if lines != q.Limit || res.Last.Count != int64(lines) {
		return fmt.Errorf("%d embedding lines, trailer count %d, limit %d", lines, res.Last.Count, q.Limit)
	}
	if si.def.Updates {
		return nil
	}
	for _, raw := range res.Lines[:lines] {
		var line responseLine
		if err := json.Unmarshal(raw, &line); err != nil {
			return err
		}
		if err := checkEmbedding(si.g, si.mixEdges[idx], line.Embedding); err != nil {
			return fmt.Errorf("embedding %v: %w", line.Embedding, err)
		}
	}
	return nil
}

// checkEmbedding verifies that m maps the pattern's vertices injectively onto
// data vertices joined by every pattern edge.
func checkEmbedding(g *graph.Graph, edges [][2]int, m []graph.VertexID) error {
	seen := map[graph.VertexID]bool{}
	for _, v := range m {
		if seen[v] || int(v) < 0 || int(v) >= g.NumVertices() {
			return fmt.Errorf("vertex %d repeated or out of range", v)
		}
		seen[v] = true
	}
	for _, e := range edges {
		if e[0] >= len(m) || e[1] >= len(m) || !g.HasEdge(m[e[0]], m[e[1]]) {
			return fmt.Errorf("pattern edge %d-%d has no data edge", e[0], e[1])
		}
	}
	return nil
}

// runUpdate posts the next pre-generated batch and folds its response into
// the identity bookkeeping.
func (si *serveInstance) runUpdate(rec *recorder, tr *tracer) {
	if si.applied == len(si.batches) {
		rec.check(false, "update stream of %d batches exhausted", len(si.batches))
		return
	}
	b := si.batches[si.applied]
	op := tr.newOp()
	root := tr.begin(-1, op, "http.update")
	res := si.ls.update(b)
	tr.end(root)
	if res.Err != nil || res.Status != http.StatusOK {
		rec.check(false, "update %d: status %d: %v", si.applied, res.Status, res.Err)
		return
	}
	si.applied++
	if tr != nil {
		server := time.Duration(res.Body.WallMS * float64(time.Millisecond))
		ids := tr.addSynthetic(root, []namedDuration{{"http.pre_update", res.Latency - server}, {"serve.update", server}})
		tr.addSynthetic(ids[1], si.replayUpdate(si.applied-1))
	}
	rec.add("op2", res.Latency)
	ok := res.Body.Noops == 0 && res.Body.Added == len(b.Add) && res.Body.Removed == len(b.Remove) &&
		len(res.Body.Deltas) == len(standingPatterns)
	si.mu.Lock()
	tri := si.triangles[len(si.triangles)-1]
	for _, d := range res.Body.Deltas {
		ok = ok && d.Error == ""
		si.gained[d.Pattern] += d.Gained
		si.lost[d.Pattern] += d.Lost
		si.runs += int64(d.Runs)
		if d.Pattern == "triangle" {
			tri += d.Gained - d.Lost
		}
	}
	si.triangles = append(si.triangles, tri)
	si.mu.Unlock()
	si.epoch.Store(int64(res.Body.Epoch))
	rec.check(ok && int(res.Body.Epoch) == si.applied, "update %d: response %+v", si.applied, res.Body)
}

// replayUpdate repeats, standalone on a mirror overlay, the calls the server
// made for batch k — Overlay.ApplyBatch, Snapshot and one delta.Enumerate per
// standing pattern — and returns how long each took, for the traced pass to
// lay into the update's server span.
func (si *serveInstance) replayUpdate(k int) []namedDuration {
	if si.mirror == nil {
		si.mirror = graph.NewOverlay(si.g)
	}
	for ; si.mirrored < k; si.mirrored++ {
		si.mirror.ApplyBatch(si.batches[si.mirrored]) // catch up, untimed; the server accepted these
	}
	old := si.mirror.Snapshot()
	start := time.Now()
	applied, err := si.mirror.ApplyBatch(si.batches[k])
	si.mirrored++
	parts := []namedDuration{{"graph.overlay_apply", time.Since(start)}}
	if err != nil {
		return parts
	}
	start = time.Now()
	neu := si.mirror.Snapshot()
	parts = append(parts, namedDuration{"graph.overlay_snapshot", time.Since(start)})
	start = time.Now()
	for _, pat := range standingPatterns {
		p, _ := pattern.Parse(pat) // parsed without error at set-up
		delta.Enumerate(context.Background(), old, neu, applied.Added, applied.Removed, p,
			delta.Options{Workers: si.def.Workers, Seed: si.def.EngineSeed, Collect: true})
	}
	return append(parts, namedDuration{"delta.enumerate", time.Since(start)})
}

func (si *serveInstance) warm(rec *recorder) {
	for idx := range si.mix {
		si.runQuery(idx, rec, nil)
	}
	if si.def.Updates {
		// The standing patterns' counts before any update, from the server.
		for _, pat := range standingPatterns {
			res := si.ls.query(query{Pattern: pat, CountOnly: true})
			rec.check(res.Err == nil && res.Last.Count == si.expected[pat], "%s before updates: count %d, oracle %d (%v)", pat, res.Last.Count, si.expected[pat], res.Err)
		}
		si.runUpdate(rec, nil)
	}
}

func (si *serveInstance) loop(d time.Duration, rec *recorder, tr *tracer) (opWindow, op2Window time.Duration) {
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < si.def.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(si.cursor.Add(1)-1) % len(si.order)
				si.runQuery(si.order[i], rec, tr)
			}
		}()
	}
	if si.def.Updates {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				si.runUpdate(rec, tr)
			}
		}()
	}
	wg.Wait()
	return time.Since(start), time.Since(start)
}

// finish checks, on serve-update, the maintenance identity
// count(before) + Σgained − Σlost == count(after) three ways — against the
// update responses, against both subscribers' summary lines, and against the
// oracle on the benchmark's own replay of the applied batches — and that
// every triangle count served mid-stream was the count of an epoch current
// during that query. It returns the counters of the workload's own server.
func (si *serveInstance) finish(rec *recorder) map[string]float64 {
	st := si.ls.srv.Stats()
	observed := map[string]float64{
		"serve.completed":           float64(st.Queries.Completed),
		"serve.rejected":            float64(st.Queries.Rejected),
		"serve.deadline_exceeded":   float64(st.Queries.DeadlineExceeded),
		"serve.failed":              float64(st.Queries.Failed),
		"graph.overlay_compactions": float64(st.Mutations.Compactions),
	}
	if !si.def.Updates {
		// Without updates one plan cache lives for the whole run.
		observed["serve.plan_cache_misses"] = float64(st.Plans.Misses)
		observed["serve.plan_cache_hit_rate"] = float64(st.Plans.Hits) / float64(st.Plans.Hits+st.Plans.Misses)
		return observed
	}
	if si.applied > 0 {
		observed["delta.runs_per_batch"] = float64(si.runs) / float64(si.applied)
	}

	model := newEdgeModel(si.g)
	for _, b := range si.batches[:si.applied] {
		model.apply(b)
	}
	oracle, err := oracleCounts(model.graph(), standingPatterns)
	if err != nil {
		rec.check(false, "%v", err)
	}
	for _, sub := range si.ls.subs {
		seen := sub.waitEpoch(uint64(si.applied), 5*time.Second)
		sub.mu.Lock()
		rec.check(seen && sub.err == nil, "subscriber %s: saw epoch %d of %d: %v", sub.pattern, sub.lastEpoch, si.applied, sub.err)
		subGained, subLost := sub.gained, sub.lost
		sub.mu.Unlock()

		before := si.expected[sub.pattern]
		res := si.ls.query(query{Pattern: sub.pattern, CountOnly: true})
		after := res.Last.Count
		rec.check(res.Err == nil && after == oracle[sub.pattern],
			"%s after %d updates: served %d, oracle %d (%v)", sub.pattern, si.applied, after, oracle[sub.pattern], res.Err)
		rec.check(before+si.gained[sub.pattern]-si.lost[sub.pattern] == after,
			"%s identity (responses): %d + %d - %d != %d", sub.pattern, before, si.gained[sub.pattern], si.lost[sub.pattern], after)
		rec.check(before+subGained-subLost == after,
			"%s identity (subscriber): %d + %d - %d != %d", sub.pattern, before, subGained, subLost, after)
	}
	for _, o := range si.observations {
		ok := false
		for e := o.sentEpoch; e <= o.recvEpoch+1 && e < int64(len(si.triangles)); e++ {
			ok = ok || si.triangles[e] == o.count
		}
		rec.check(ok, "triangle count %d served between epochs %d and %d matches none of them", o.count, o.sentEpoch, o.recvEpoch)
	}
	si.observations = nil
	return observed
}
