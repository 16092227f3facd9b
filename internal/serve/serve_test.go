package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"psgl/internal/bsp"
	"psgl/internal/core"
	"psgl/internal/faulttest"
	"psgl/internal/gen"
	"psgl/internal/graph"
	"psgl/internal/pattern"
)

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	return gen.ChungLu(800, 3200, 1.7, 11)
}

func newTestServer(t *testing.T, g *graph.Graph, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestConcurrentSamedPatternSharesOnePlan is the headline acceptance test:
// concurrent queries spelling the same canonical pattern differently
// (cycle(4) vs the catalog square vs a renumbered edge list) result in
// exactly one plan-cache entry, and /stats proves the cache hits.
func TestConcurrentSamePatternSharesOnePlan(t *testing.T) {
	g := testGraph(t)
	_, ts := newTestServer(t, g, Config{MaxInFlight: 4, MaxQueue: 8})

	spellings := []string{"cycle(4)", "square", "edges(2-3,0-3,1-2,0-1)", "cycle(4)"}
	var wg sync.WaitGroup
	counts := make([]int64, len(spellings))
	errs := make([]error, len(spellings))
	for i, sp := range spellings {
		wg.Add(1)
		go func(i int, sp string) {
			defer wg.Done()
			var cr countResponse
			code := 0
			resp, err := http.Get(ts.URL + "/query?count_only=1&pattern=" + sp)
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			code = resp.StatusCode
			if code != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", code)
				return
			}
			if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
				errs[i] = err
				return
			}
			counts[i] = cr.Count
		}(i, sp)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("query %q: %v", spellings[i], err)
		}
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] != counts[0] {
			t.Fatalf("spelling %q counted %d, %q counted %d", spellings[i], counts[i], spellings[0], counts[0])
		}
	}

	var st StatsResponse
	if code := getJSON(t, ts.URL+"/stats", &st); code != http.StatusOK {
		t.Fatalf("/stats status %d", code)
	}
	if len(st.Plans.Entries) != 1 {
		t.Fatalf("plan cache has %d entries, want exactly 1: %+v", len(st.Plans.Entries), st.Plans.Entries)
	}
	if st.Plans.Misses != 1 {
		t.Fatalf("plan cache misses = %d, want 1", st.Plans.Misses)
	}
	if st.Plans.Hits != int64(len(spellings)-1) {
		t.Fatalf("plan cache hits = %d, want %d", st.Plans.Hits, len(spellings)-1)
	}
	if st.Queries.Completed != int64(len(spellings)) {
		t.Fatalf("completed = %d, want %d", st.Queries.Completed, len(spellings))
	}
}

// TestCountsMatchBatchEngine: the resident service must count bit-identically
// to a direct batch core.Run for the same graph and pattern — plan reuse must
// not change results.
func TestCountsMatchBatchEngine(t *testing.T) {
	g := testGraph(t)
	_, ts := newTestServer(t, g, Config{MaxInFlight: 2})

	for _, tc := range []struct {
		dsl  string
		name string
	}{
		{"pg1", "pg1"},
		{"triangle", "pg1"},
		{"cycle(4)", "square"},
		{"pg3", "pg3"},
	} {
		p, err := pattern.ByName(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.Run(g, p, core.NewOptions())
		if err != nil {
			t.Fatal(err)
		}

		var cr countResponse
		if code := getJSON(t, ts.URL+"/query?count_only=true&pattern="+tc.dsl, &cr); code != http.StatusOK {
			t.Fatalf("%s: status %d", tc.dsl, code)
		}
		if cr.Count != want.Count {
			t.Fatalf("%s: served count %d != batch count %d", tc.dsl, cr.Count, want.Count)
		}
	}
}

// TestStreamingLimit: an NDJSON stream honors limit exactly, reports the
// enumeration as truncated, and every line is a real embedding — for
// triangles, paths, stars and 4-cycles, which streams run pipelined, depth
// first.
func TestStreamingLimit(t *testing.T) {
	g := testGraph(t)
	_, ts := newTestServer(t, g, Config{MaxInFlight: 2})

	const limit = 3
	for _, dsl := range []string{"triangle", "path(3)", "star(3)", "cycle(4)"} {
		p, err := pattern.Parse(dsl)
		if err != nil {
			t.Fatal(err)
		}
		full, err := core.Run(g, p, core.NewOptions())
		if err != nil {
			t.Fatal(err)
		}
		if full.Count < 10 {
			t.Fatalf("%s: test graph has only %d embeddings; want >= 10", dsl, full.Count)
		}

		resp, err := http.Get(fmt.Sprintf("%s/query?pattern=%s&limit=%d", ts.URL, dsl, limit))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", dsl, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Fatalf("%s: content type %q", dsl, ct)
		}

		var embeddings [][]graph.VertexID
		var trailer streamTrailer
		sawTrailer := false
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if sawTrailer {
				t.Fatalf("%s: line after trailer: %s", dsl, sc.Text())
			}
			if strings.Contains(sc.Text(), `"done"`) {
				if err := json.Unmarshal(sc.Bytes(), &trailer); err != nil {
					t.Fatal(err)
				}
				sawTrailer = true
				continue
			}
			var l struct {
				Embedding []graph.VertexID `json:"embedding"`
			}
			if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
				t.Fatalf("%s: bad NDJSON line %q: %v", dsl, sc.Text(), err)
			}
			embeddings = append(embeddings, l.Embedding)
		}
		err = sc.Err()
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !sawTrailer {
			t.Fatalf("%s: stream ended without a trailer", dsl)
		}
		if len(embeddings) != limit {
			t.Fatalf("%s: streamed %d embeddings, want exactly %d", dsl, len(embeddings), limit)
		}
		if trailer.Count != limit || !trailer.Truncated || !trailer.Done {
			t.Fatalf("%s: trailer = %+v, want done, truncated, count=%d", dsl, trailer, limit)
		}
		// Each streamed embedding must be a real one: distinct vertices, and
		// an edge under every pattern edge.
		for _, emb := range embeddings {
			if len(emb) != p.N() {
				t.Fatalf("%s: embedding %v has %d vertices, want %d", dsl, emb, len(emb), p.N())
			}
			for i := range emb {
				for j := i + 1; j < len(emb); j++ {
					if emb[i] == emb[j] {
						t.Fatalf("%s: embedding %v repeats a vertex", dsl, emb)
					}
				}
			}
			for _, e := range p.Edges() {
				if !g.HasEdge(emb[e[0]], emb[e[1]]) {
					t.Fatalf("%s: embedding %v: no edge %d-%d", dsl, emb, emb[e[0]], emb[e[1]])
				}
			}
		}
	}
}

// TestStreamingUnlimitedMatchesCount: without a limit the stream carries every
// embedding, and the trailer count equals the batch count.
func TestStreamingUnlimitedMatchesCount(t *testing.T) {
	g := gen.ChungLu(300, 1200, 1.7, 5)
	_, ts := newTestServer(t, g, Config{MaxInFlight: 2})

	p, err := pattern.ByName("pg1")
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Run(g, p, core.NewOptions())
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/query?pattern=pg1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	lines := 0
	var trailer streamTrailer
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if strings.Contains(sc.Text(), `"done"`) {
			if err := json.Unmarshal(sc.Bytes(), &trailer); err != nil {
				t.Fatal(err)
			}
			continue
		}
		lines++
	}
	if int64(lines) != want.Count || trailer.Count != want.Count {
		t.Fatalf("streamed %d lines, trailer count %d, batch count %d", lines, trailer.Count, want.Count)
	}
	if trailer.Truncated {
		t.Fatal("unlimited stream reported truncated")
	}
}

// pinServer builds a server whose queries block until the returned release
// function is called — deterministic in-flight pinning for admission and
// drain tests.
func pinServer(t *testing.T, cfg Config) (*Server, *httptest.Server, func(), chan struct{}) {
	t.Helper()
	s, ts := newTestServer(t, testGraph(t), cfg)
	gate := make(chan struct{})
	admitted := make(chan struct{}, 64)
	s.hookQueryAdmitted = func() {
		admitted <- struct{}{}
		<-gate
	}
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	return s, ts, release, admitted
}

// TestQueueOverflowRejectedWith429: with one execution slot and one queue
// seat occupied, the next query is turned away immediately with 429.
func TestQueueOverflowRejectedWith429(t *testing.T) {
	_, ts, release, admitted := pinServer(t, Config{MaxInFlight: 1, MaxQueue: 1})

	results := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := http.Get(ts.URL + "/query?count_only=1&pattern=pg1")
			if err != nil {
				results <- -1
				return
			}
			resp.Body.Close()
			results <- resp.StatusCode
		}()
	}
	// Wait until the first query holds the slot; the second parks in the
	// queue (it never reaches the hook).
	select {
	case <-admitted:
	case <-time.After(10 * time.Second):
		t.Fatal("no query admitted")
	}
	waitForWaiting(t, ts.URL, 1)

	// Slot busy + queue full: this one must bounce with 429, fast.
	var body map[string]string
	if code := getJSON(t, ts.URL+"/query?count_only=1&pattern=pg1", &body); code != http.StatusTooManyRequests {
		t.Fatalf("overflow query status %d, want 429 (%v)", code, body)
	}
	if !strings.Contains(body["error"], "queue") {
		t.Fatalf("429 body %v should mention the queue", body)
	}

	release()
	for i := 0; i < 2; i++ {
		if code := <-results; code != http.StatusOK {
			t.Fatalf("pinned query %d finished with %d, want 200", i, code)
		}
	}

	var st StatsResponse
	getJSON(t, ts.URL+"/stats", &st)
	if st.Queries.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", st.Queries.Rejected)
	}
}

// waitForWaiting polls /stats until the admission queue shows n waiters.
func waitForWaiting(t *testing.T, base string, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var st StatsResponse
		getJSON(t, base+"/stats", &st)
		if st.Admission.Waiting >= n {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("admission queue never reached %d waiters", n)
}

// TestDeadlineWhileQueued: a query whose deadline_ms expires while it waits
// for a slot gets 504 Gateway Timeout.
func TestDeadlineWhileQueued(t *testing.T) {
	_, ts, release, admitted := pinServer(t, Config{MaxInFlight: 1, MaxQueue: 4})
	defer release()

	bg := make(chan int, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/query?count_only=1&pattern=pg1")
		if err != nil {
			bg <- -1
			return
		}
		resp.Body.Close()
		bg <- resp.StatusCode
	}()
	select {
	case <-admitted:
	case <-time.After(10 * time.Second):
		t.Fatal("no query admitted")
	}

	var body map[string]string
	code := getJSON(t, ts.URL+"/query?count_only=1&pattern=pg1&deadline_ms=50", &body)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("queued-past-deadline query status %d, want 504 (%v)", code, body)
	}

	release()
	if code := <-bg; code != http.StatusOK {
		t.Fatalf("pinned query finished with %d", code)
	}
}

// TestDeadlineDuringExecution: a deadline that expires while the engine runs
// cancels the query (504 on the count path).
func TestDeadlineDuringExecution(t *testing.T) {
	s, ts := newTestServer(t, testGraph(t), Config{MaxInFlight: 2})
	// Make the admitted query outlive its deadline before the engine starts;
	// RunContext then sees an expired context.
	s.hookQueryAdmitted = func() { time.Sleep(80 * time.Millisecond) }

	var body map[string]string
	code := getJSON(t, ts.URL+"/query?count_only=1&pattern=pg1&deadline_ms=20", &body)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (%v)", code, body)
	}
	var st StatsResponse
	getJSON(t, ts.URL+"/stats", &st)
	if st.Queries.DeadlineExceeded == 0 {
		t.Fatal("deadline_exceeded counter not bumped")
	}
}

// TestHugeDeadlineIsCapped: a deadline_ms past MaxDeadline is capped to it,
// however large: one whose Duration would overflow must not come out
// negative and fail the query before it runs.
func TestHugeDeadlineIsCapped(t *testing.T) {
	g := testGraph(t)
	p, _ := pattern.Parse("triangle")
	want, err := core.Run(g, p, core.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, g, Config{Workers: 2})
	for _, ms := range []string{"9223372036854775807", "10000000000000"} {
		var cr struct {
			Count int64 `json:"count"`
		}
		if code := getJSON(t, ts.URL+"/query?count_only=1&pattern=triangle&deadline_ms="+ms, &cr); code != http.StatusOK {
			t.Fatalf("deadline_ms=%s: status %d, want 200", ms, code)
		}
		if cr.Count != want.Count {
			t.Fatalf("deadline_ms=%s: count %d, want %d", ms, cr.Count, want.Count)
		}
	}
}

// TestBadRequests: malformed queries are 400s with JSON errors.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, testGraph(t), Config{})
	for _, q := range []string{
		"",                              // missing pattern
		"?pattern=wheel(5)",             // unknown DSL form
		"?pattern=edges(0-0)",           // self loop
		"?pattern=pg1&limit=-2",         // bad limit
		"?pattern=pg1&deadline_ms=zero", // bad deadline
		"?pattern=pg1&workers=0",        // bad workers
		"?pattern=pg1&count_only=maybe", // bad bool
		"?pattern=edges(0-1,2-3)",       // disconnected
	} {
		var body map[string]string
		if code := getJSON(t, ts.URL+"/query"+q, &body); code != http.StatusBadRequest {
			t.Fatalf("query %q: status %d, want 400 (%v)", q, code, body)
		}
		if body["error"] == "" {
			t.Fatalf("query %q: empty error body", q)
		}
	}
}

// TestDrain: SIGTERM semantics — draining stops new queries (503 on /query
// and /healthz) but waits for in-flight queries to finish.
func TestDrain(t *testing.T) {
	s, ts, release, admitted := pinServer(t, Config{MaxInFlight: 2})

	done := make(chan int, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/query?count_only=1&pattern=pg1")
		if err != nil {
			done <- -1
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	select {
	case <-admitted:
	case <-time.After(10 * time.Second):
		t.Fatal("no query admitted")
	}

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	// Drain is initiated; new work must bounce.
	waitForDraining(t, s)
	if code := getJSON(t, ts.URL+"/query?count_only=1&pattern=pg1", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("query during drain: status %d, want 503", code)
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: status %d, want 503", code)
	}
	select {
	case err := <-drained:
		t.Fatalf("drain finished with %v while a query was still in flight", err)
	default:
	}

	release()
	if code := <-done; code != http.StatusOK {
		t.Fatalf("in-flight query finished with %d during drain, want 200", code)
	}
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("drain did not complete after the in-flight query finished")
	}
}

func waitForDraining(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if s.Draining() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("server never started draining")
}

// TestStatsShape: fingerprint, graph dimensions, and uptime are reported.
func TestStatsShape(t *testing.T) {
	g := testGraph(t)
	_, ts := newTestServer(t, g, Config{MaxInFlight: 3, MaxQueue: 5})
	var st StatsResponse
	if code := getJSON(t, ts.URL+"/stats", &st); code != http.StatusOK {
		t.Fatalf("/stats status %d", code)
	}
	if st.Graph.Vertices != g.NumVertices() || st.Graph.Edges != g.NumEdges() {
		t.Fatalf("graph dims %d/%d, want %d/%d", st.Graph.Vertices, st.Graph.Edges, g.NumVertices(), g.NumEdges())
	}
	if want := fmt.Sprintf("%016x", g.Fingerprint()); st.Graph.Fingerprint != want {
		t.Fatalf("fingerprint %q, want %q", st.Graph.Fingerprint, want)
	}
	if st.Admission.MaxInFlight != 3 || st.Admission.MaxQueue != 5 {
		t.Fatalf("admission config %+v", st.Admission)
	}
	if st.Draining {
		t.Fatal("fresh server reports draining")
	}
}

// TestDebugEndpointsFollowQueries: /debug/obs serves the most recent query's
// tagged observer snapshot.
func TestDebugEndpointsFollowQueries(t *testing.T) {
	_, ts := newTestServer(t, testGraph(t), Config{})
	if code := getJSON(t, ts.URL+"/query?count_only=1&pattern=pg1", nil); code != http.StatusOK {
		t.Fatalf("query status %d", code)
	}
	var snap struct {
		Tag string `json:"tag"`
	}
	if code := getJSON(t, ts.URL+"/debug/obs", &snap); code != http.StatusOK {
		t.Fatalf("/debug/obs status %d", code)
	}
	if snap.Tag != "q1" {
		t.Fatalf("debug snapshot tag %q, want q1", snap.Tag)
	}
}

// TestMethodNotAllowed guards the mux.
func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, testGraph(t), Config{})
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/query?pattern=pg1", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE /query: %d, want 405", resp.StatusCode)
	}
}

func TestNewRejectsNilGraph(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("New(nil) succeeded")
	}
}

// TestLocalQueryRetryResumesFromCheckpoint: in local mode with QueryRetries
// and checkpointing on, a query whose exchange dies mid-run is re-admitted,
// resumes from its last barrier checkpoint, and answers the exact count. The
// query lists squares: a triangle completes where it is seeded and has no
// barrier to kill.
func TestLocalQueryRetryResumesFromCheckpoint(t *testing.T) {
	g := testGraph(t)
	want := func() int64 {
		p, _ := pattern.Parse("cycle(4)")
		res, err := core.Run(g, p, core.Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		return res.Count
	}()
	s, ts := newTestServer(t, g, Config{
		Workers:         2,
		CheckpointEvery: 1,
		QueryRetries:    2,
	})
	// One scheduled kill at superstep 1; no in-run recovery budget, so the
	// run fails and only the serve-layer retry (with ResumeFrom) saves it.
	s.testExchange = faulttest.Schedule(t, nil, bsp.StepFault{Step: 1, Kind: bsp.StepFaultKill, Worker: 0})
	var cr struct {
		Count int64 `json:"count"`
	}
	if code := getJSON(t, ts.URL+"/query?pattern=cycle(4)&count_only=true", &cr); code != http.StatusOK {
		t.Fatalf("status %d, want 200 after retry", code)
	}
	if cr.Count != want {
		t.Fatalf("retried count %d, want %d", cr.Count, want)
	}
	st := s.Stats()
	if st.Queries.Retries != 1 {
		t.Fatalf("query retries = %d, want 1", st.Queries.Retries)
	}
	if st.Queries.Failed != 0 {
		t.Fatalf("failed = %d, want 0 (the retry succeeded)", st.Queries.Failed)
	}
}
