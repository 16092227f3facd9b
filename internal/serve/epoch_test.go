package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"psgl/internal/centralized"
	"psgl/internal/gen"
	"psgl/internal/graph"
)

// checkCensus compares a served census with centralized's k-motif histogram
// of g (esu's class codes re-canonicalized the oracle's way).
func checkCensus(t *testing.T, what string, got censusResponse, g *graph.Graph) {
	t.Helper()
	want, total := centralized.MotifCensus(g, got.K)
	hist := map[uint32]int64{}
	for _, c := range got.Classes {
		hist[centralized.CanonicalSubgraphCode(got.K, c.Code)] += c.Count
	}
	if got.Subgraphs != total || len(hist) != len(want) {
		t.Fatalf("%s: served %d subgraphs in %d classes, oracle %d in %d", what, got.Subgraphs, len(hist), total, len(want))
	}
	for code, n := range want {
		if hist[code] != n {
			t.Fatalf("%s: class %#x served %d, oracle %d", what, code, hist[code], n)
		}
	}
}

// TestCensusAdmittedAcrossUpdateKeepsItsEpoch: a census query pins its epoch
// before it waits for admission. When an effective /update lands while it
// waits, it must census the graph it pinned and leave the new epoch's caches
// alone. It used to rebuild server-wide census state from its stale graph
// under the new generation number and store its histogram as current, so
// every later census(k) of the new epoch was served the old one.
func TestCensusAdmittedAcrossUpdateKeepsItsEpoch(t *testing.T) {
	g := graph.FromEdges(7, [][2]graph.VertexID{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}})
	s, ts := newTestServer(t, g, Config{Workers: 2, MaxInFlight: 2})
	gate := make(chan struct{})
	pinned := make(chan struct{})
	var calls atomic.Int32
	s.hookQueryAdmitted = func() {
		if calls.Add(1) == 1 { // the census query; the update and later queries pass
			close(pinned)
			<-gate
		}
	}

	var stale censusResponse
	done := make(chan int)
	go func() { done <- getJSON(t, ts.URL+"/query?pattern=census(3)", &stale) }()
	select {
	case <-pinned:
	case <-time.After(10 * time.Second):
		t.Fatal("census query never admitted")
	}
	batch := graph.Batch{Add: [][2]graph.VertexID{{0, 2}, {1, 3}, {5, 6}}}
	if _, code := postUpdate(t, ts.URL, `{"add":[[0,2],[1,3],[5,6]]}`); code != http.StatusOK {
		t.Fatalf("update status %d", code)
	}
	close(gate)
	if code := <-done; code != http.StatusOK {
		t.Fatalf("pinned census status %d", code)
	}
	checkCensus(t, "census pinned before the update", stale, g)

	var fresh censusResponse
	if code := getJSON(t, ts.URL+"/query?pattern=census(3)", &fresh); code != http.StatusOK {
		t.Fatalf("fresh census status %d", code)
	}
	if fresh.Cached {
		t.Fatal("the new epoch's first census was answered from a cache")
	}
	checkCensus(t, "census after the update", fresh, mutate(t, g, batch))
	// Both censuses enumerated: neither was answered from a result cache.
	if st := s.Stats(); st.Census.Queries != 2 || st.Census.ResultCacheHits != 0 || st.Graph.Epoch != 1 {
		t.Fatalf("stats after the new epoch's census: %+v (epoch %d)", st.Census, st.Graph.Epoch)
	}
}

// TestPreparedStateFollowsTheGraphEpoch: the engine's graph-scoped state is
// built by the first engine query of the compaction base's epoch, shared by
// the rest, kept across an all-noop batch, replaced — lazily, by a patch of
// the base's state that shares its owner array, orig and inverse — after an
// effective one, built afresh after a compaction, and /stats says so. A
// ?workers= override re-partitions over the shared state without another
// build.
func TestPreparedStateFollowsTheGraphEpoch(t *testing.T) {
	g := testGraph(t)
	s, ts := newTestServer(t, g, Config{Workers: 2, CompactThreshold: 2})
	if st := s.Stats().Prepared; st.Builds != 0 || st.Bytes != 0 {
		t.Fatalf("nothing may be prepared before the first query: %+v", st)
	}
	want := countQuery(t, ts.URL, "triangle")
	countQuery(t, ts.URL, "triangle")
	st := s.Stats().Prepared
	if st.Builds != 1 || st.SharedUses != 1 || st.LastBuildMS <= 0 || st.Bytes == 0 || st.Epoch != 0 {
		t.Fatalf("after two queries: %+v", st)
	}
	held := s.state.Load().prep.Load()

	e := [2]graph.VertexID{}
	g.Edges(func(u, v graph.VertexID) bool { e = [2]graph.VertexID{u, v}; return false })
	if ur, code := postUpdate(t, ts.URL, fmt.Sprintf(`{"add":[[%d,%d]]}`, e[0], e[1])); code != http.StatusOK || ur.Noops != 1 {
		t.Fatalf("noop batch: %+v, status %d", ur, code)
	}
	var cr countResponse
	if code := getJSON(t, ts.URL+"/query?count_only=1&workers=3&pattern=triangle", &cr); code != http.StatusOK || cr.Count != want {
		t.Fatalf("3-worker count after a noop batch: %d (status %d), want %d", cr.Count, code, want)
	}
	full := s.Stats()
	if st := full.Prepared; st.Builds != 1 || st.SharedUses != 2 || st.Epoch != 0 || full.Graph.Epoch != 1 {
		t.Fatalf("a noop batch must keep the epoch's prepared state: %+v (serving epoch %d)", st, full.Graph.Epoch)
	}
	if s.state.Load().prep.Load() != held {
		t.Fatal("a noop batch or a ?workers= override replaced the prepared state")
	}

	if _, code := postUpdate(t, ts.URL, fmt.Sprintf(`{"remove":[[%d,%d]]}`, e[0], e[1])); code != http.StatusOK {
		t.Fatalf("effective update status %d", code)
	}
	st = s.Stats().Prepared
	if st.Builds != 1 || st.Patches != 0 || st.Epoch != 2 || st.BaseEpoch != 0 || st.Bytes != held.SizeBytes() {
		t.Fatalf("an update must keep only the base's state resident and make nothing: %+v", st)
	}
	if s.state.Load().prep.Load() != nil {
		t.Fatal("the update made the new epoch's state at publish")
	}
	g2 := mutate(t, g, graph.Batch{Remove: [][2]graph.VertexID{e}})
	for i := 0; i < 2; i++ {
		if got, want := countQuery(t, ts.URL, "triangle"), oracleCount(t, g2, "triangle"); got != want {
			t.Fatalf("count on the patched state: %d, oracle %d", got, want)
		}
	}
	patched := s.state.Load().prep.Load()
	st = s.Stats().Prepared
	if st.Builds != 1 || st.Patches != 1 || st.SharedUses != 3 || st.LastPatchMS <= 0 || patched == held {
		t.Fatalf("the new epoch's first query must patch the base's state, the second share it: %+v", st)
	}
	// The owner array, orig and its inverse belong to both states: counted once.
	if shared := 3 * 4 * int64(g.NumVertices()); st.Bytes != held.SizeBytes()+patched.SizeBytes()-shared {
		t.Fatalf("prepared bytes %d, want base %d + patched %d - shared %d",
			st.Bytes, held.SizeBytes(), patched.SizeBytes(), shared)
	}

	// A second pending patch edge reaches the threshold: the overlay compacts
	// and the snapshot becomes the next base, built afresh by its first query.
	absent := [2]graph.VertexID{0, 1}
	for g2.HasEdge(absent[0], absent[1]) {
		absent[1]++
	}
	if ur, code := postUpdate(t, ts.URL, fmt.Sprintf(`{"add":[[%d,%d]]}`, absent[0], absent[1])); code != http.StatusOK || !ur.Compacted {
		t.Fatalf("compacting update: %+v, status %d", ur, code)
	}
	if st := s.Stats().Prepared; st.Builds != 1 || st.Bytes != 0 || st.Epoch != 3 || st.BaseEpoch != 3 {
		t.Fatalf("a compaction must publish an unbuilt base: %+v", st)
	}
	g3 := mutate(t, g2, graph.Batch{Add: [][2]graph.VertexID{absent}})
	if got, want := countQuery(t, ts.URL, "triangle"), oracleCount(t, g3, "triangle"); got != want {
		t.Fatalf("count on the new base: %d, oracle %d", got, want)
	}
	cur := s.state.Load()
	if st := s.Stats().Prepared; st.Builds != 2 || st.Patches != 1 || cur.prep.Load() != cur.base.prep.Load() {
		t.Fatalf("the new base's first query must build its state: %+v", st)
	}
}

// TestServedQueryAllocationBudget: a warm served triangle count on the
// serve-short graph allocates 0.08 MB, the stream budget: no fresh order,
// edge index or set of ownership buckets (≈ 12 MB per query before the epoch
// kept them), and no seed frontier (3.2 MB of 80 B seed envelopes while Init
// sent every seed to itself; each is now expanded where it is built, and only
// the 627 Gpsis of the second level cross a barrier).
func TestServedQueryAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocations are not the query's")
	}
	if testing.Short() {
		t.Skip("builds a 40k-vertex graph")
	}
	s, err := New(gen.ChungLu(40000, 120000, 2.5, 1), Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	perQuery := warmQueryMB(t, s.Handler(), "/query?pattern=triangle&count_only=1")
	t.Logf("%.2f MB allocated per warm triangle count", perQuery)
	if perQuery > 0.5 {
		t.Errorf("%.2f MB allocated per warm triangle count, budget 0.5", perQuery)
	}
}

// TestServedStreamAllocationBudget: a warm limit stream on the serve-short
// graph allocates for the Gpsis it reaches, not for every seed. A stream runs
// on the pipelined policy, which seeds from a per-worker cursor on demand;
// with every seed built up front, as before, each of these streams allocated
// 3.1-4.4 MB, nearly all of it seed envelopes.
func TestServedStreamAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocations are not the query's")
	}
	if testing.Short() {
		t.Skip("builds a 40k-vertex graph")
	}
	s, err := New(gen.ChungLu(40000, 120000, 2.5, 1), Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"path(3)&limit=10", "star(3)&limit=50", "cycle(3)&limit=100"} {
		perQuery := warmQueryMB(t, s.Handler(), "/query?pattern="+q)
		t.Logf("%s: %.2f MB allocated per warm stream", q, perQuery)
		if perQuery > 0.5 {
			t.Errorf("%s: %.2f MB allocated per warm stream, budget 0.5", q, perQuery)
		}
	}
}

// warmQueryMB serves target once, to build the epoch's state and the plan,
// then returns the MB allocated per request over five more.
func warmQueryMB(t *testing.T, h http.Handler, target string) float64 {
	t.Helper()
	query := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", target, rec.Code, rec.Body)
		}
	}
	query()
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		query()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs / (1 << 20)
}

// TestEpochCoherenceSoak runs an updater, a standing query and concurrent
// count queries against one server (CI runs it under -race) and checks that
// every served count is the oracle's count of some epoch current between the
// query's send and its receipt — a query never mixes one epoch's graph with
// another's prepared state or plans — and that per epoch
// count(G) + gained − lost = count(G′) holds for what the update response
// and the subscriber's stream report. A low compaction threshold makes the
// queries patch their epochs' state from several successive bases, and
// every query counts once among the prepared builds, patches and shared uses.
func TestEpochCoherenceSoak(t *testing.T) {
	const epochs = 60
	g := gen.ChungLu(400, 1600, 2.0, 5)
	s, ts := newTestServer(t, g, Config{Workers: 2, MaxInFlight: 3, MaxQueue: 64, CompactThreshold: 40})

	resp, err := http.Get(ts.URL + "/subscribe?pattern=triangle")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	var hello subHello
	readNDJSONLine(t, br, &hello)
	// The standing query's per-epoch summaries, read as they arrive so the
	// stream never backs up into the server's lag cut-off.
	const effectiveEpochs = epochs - epochs/6
	summaries := make(chan subSummaryLine, effectiveEpochs)
	go func() {
		defer close(summaries)
		for n := 0; n < effectiveEpochs; {
			line, err := br.ReadBytes('\n')
			var sum subSummaryLine
			if err != nil || json.Unmarshal(line, &sum) != nil {
				return
			}
			if sum.Done {
				summaries <- sum
				n++
			}
		}
	}()

	// counts[e] is the oracle's triangle count after epoch e; epoch is the
	// latest one whose update response the updater has seen.
	counts := []int64{centralized.CountTriangles(g)}
	var epoch atomic.Int64
	type observation struct{ sent, recv, count int64 }
	var obsMu sync.Mutex
	var observed []observation
	stop := make(chan struct{})

	var queriers sync.WaitGroup
	for c := 0; c < 3; c++ {
		queriers.Add(1)
		go func(c int) {
			defer queriers.Done()
			url := ts.URL + "/query?count_only=1&pattern=triangle"
			if c == 2 {
				url += "&workers=3" // its own buckets over the epoch's shared indexes
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				sent := epoch.Load()
				var cr countResponse
				r, err := http.Get(url)
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				err = json.NewDecoder(r.Body).Decode(&cr)
				r.Body.Close()
				if err != nil || r.StatusCode != http.StatusOK {
					t.Errorf("query: status %d, %v", r.StatusCode, err)
					return
				}
				obsMu.Lock()
				observed = append(observed, observation{sent, epoch.Load(), cr.Count})
				obsMu.Unlock()
			}
		}(c)
	}

	rng := rand.New(rand.NewSource(9))
	mirror := graph.NewOverlay(g)
	n := g.NumVertices()
	var gained, lost []int64 // per epoch, from the update responses
	for e := 1; e <= epochs; e++ {
		var b graph.Batch
		if e%6 == 0 { // an all-noop batch: re-add a present edge
			mirror.Snapshot().Edges(func(u, v graph.VertexID) bool {
				b.Add = append(b.Add, [2]graph.VertexID{u, v})
				return false
			})
		} else {
			for i := 0; i < 4; i++ {
				u, v := graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n))
				if u == v {
					continue
				}
				if rng.Intn(2) == 0 {
					b.Add = append(b.Add, [2]graph.VertexID{u, v})
				} else if nb := mirror.Snapshot().Neighbors(u); len(nb) > 0 {
					b.Remove = append(b.Remove, [2]graph.VertexID{u, nb[rng.Intn(len(nb))]})
				}
			}
			if len(b.Add)+len(b.Remove) == 0 {
				b.Add = append(b.Add, [2]graph.VertexID{0, 1})
			}
		}
		if _, err := mirror.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
		counts = append(counts, centralized.CountTriangles(mirror.Snapshot()))
		body, _ := json.Marshal(map[string][][2]graph.VertexID{"add": b.Add, "remove": b.Remove})
		ur, code := postUpdate(t, ts.URL, string(body))
		if code != http.StatusOK || ur.Epoch != uint64(e) {
			t.Fatalf("update %d: status %d, %+v", e, code, ur)
		}
		var dg, dl int64
		for _, d := range ur.Deltas {
			if d.Error != "" {
				t.Fatalf("update %d: delta error %s", e, d.Error)
			}
			dg, dl = d.Gained, d.Lost
		}
		gained, lost = append(gained, dg), append(lost, dl)
		if counts[e-1]+dg-dl != counts[e] {
			t.Fatalf("epoch %d: count(G) %d + gained %d - lost %d != count(G') %d", e, counts[e-1], dg, dl, counts[e])
		}
		epoch.Store(int64(e))
	}
	close(stop)
	queriers.Wait()

	// The standing query heard every effective epoch, with the same totals.
	for e := 1; e <= epochs; e++ {
		if e%6 == 0 {
			continue // noop batches publish nothing to subscribers
		}
		select {
		case sum, ok := <-summaries:
			if !ok || sum.Epoch != uint64(e) || sum.Gained != gained[e-1] || sum.Lost != lost[e-1] || sum.Error != "" {
				t.Fatalf("subscriber summary %+v (stream open: %v), update %d reported +%d -%d", sum, ok, e, gained[e-1], lost[e-1])
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("subscriber never heard epoch %d", e)
		}
	}

	if len(observed) < epochs/2 {
		t.Fatalf("only %d queries completed beside %d updates", len(observed), epochs)
	}
	for _, o := range observed {
		ok := false
		for e := o.sent; e <= o.recv+1 && e < int64(len(counts)); e++ {
			ok = ok || counts[e] == o.count
		}
		if !ok {
			t.Errorf("count %d served between epochs %d and %d is none of their oracle counts %v",
				o.count, o.sent, o.recv, counts[o.sent:min(o.recv+2, int64(len(counts)))])
		}
	}
	st := s.Stats()
	if bases := st.Mutations.Compactions + 1; st.Prepared.Builds > bases || st.Mutations.Compactions < 2 {
		t.Errorf("%d prepared builds for %d compaction bases", st.Prepared.Builds, bases)
	}
	if made := st.Prepared.Builds + st.Prepared.Patches; made > effectiveEpochs+1 || st.Prepared.Patches == 0 {
		t.Errorf("%d builds and %d patches for %d graph epochs", st.Prepared.Builds, st.Prepared.Patches, effectiveEpochs+1)
	}
	if st.Prepared.Builds+st.Prepared.Patches+st.Prepared.SharedUses != st.Queries.Completed {
		t.Errorf("prepared builds %d + patches %d + shared uses %d != %d completed queries",
			st.Prepared.Builds, st.Prepared.Patches, st.Prepared.SharedUses, st.Queries.Completed)
	}
}
