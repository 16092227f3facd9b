package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"psgl/internal/bsp"
	"psgl/internal/core"
	"psgl/internal/esu"
	"psgl/internal/faulttest"
	"psgl/internal/graph"
	"psgl/internal/pattern"
)

func postUpdate(t *testing.T, url, body string) (*updateResponse, int) {
	t.Helper()
	resp, err := http.Post(url+"/update", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode
	}
	var ur updateResponse
	if err := json.NewDecoder(resp.Body).Decode(&ur); err != nil {
		t.Fatalf("decoding update response: %v", err)
	}
	return &ur, resp.StatusCode
}

func countQuery(t *testing.T, url, pat string) int64 {
	t.Helper()
	var cr countResponse
	if code := getJSON(t, url+"/query?count_only=true&pattern="+pat, &cr); code != http.StatusOK {
		t.Fatalf("count query %s: status %d", pat, code)
	}
	return cr.Count
}

// oracleCount runs the batch engine over g for pattern src.
func oracleCount(t *testing.T, g *graph.Graph, src string) int64 {
	t.Helper()
	p, err := pattern.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(g, p, core.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return res.Count
}

// mutate applies batch to a throwaway overlay over g and returns the
// resulting graph — the test-side oracle for what the server should serve.
func mutate(t *testing.T, g *graph.Graph, b graph.Batch) *graph.Graph {
	t.Helper()
	ov := graph.NewOverlay(g)
	if _, err := ov.ApplyBatch(b); err != nil {
		t.Fatal(err)
	}
	return ov.Snapshot()
}

// TestUpdateServesNewGraphAndInvalidatesPlans is the plan-cache epoch
// satellite: a plan cached against the old graph must not answer queries
// over the new one. The count after /update must match a fresh batch run on
// the mutated graph, /stats must advance the epoch and fingerprint, and the
// plan cache must be a fresh, epoch-local one.
func TestUpdateServesNewGraphAndInvalidatesPlans(t *testing.T) {
	g := testGraph(t)
	s, ts := newTestServer(t, g, Config{Workers: 2, MaxInFlight: 2})

	before := countQuery(t, ts.URL, "triangle")
	if want := oracleCount(t, g, "triangle"); before != want {
		t.Fatalf("pre-update count %d, want %d", before, want)
	}
	st0 := s.Stats()
	if st0.Graph.Epoch != 0 || st0.Plans.Misses != 1 {
		t.Fatalf("fresh server: epoch %d, plan misses %d", st0.Graph.Epoch, st0.Plans.Misses)
	}

	batch := graph.Batch{Add: [][2]graph.VertexID{{0, 1}, {0, 2}, {1, 2}, {3, 4}}, Remove: [][2]graph.VertexID{{5, 6}}}
	body, _ := json.Marshal(map[string][][2]graph.VertexID{"add": batch.Add, "remove": batch.Remove})
	ur, code := postUpdate(t, ts.URL, string(body))
	if code != http.StatusOK {
		t.Fatalf("update status %d", code)
	}
	if ur.Epoch != 1 {
		t.Fatalf("update epoch %d, want 1", ur.Epoch)
	}
	want := mutate(t, g, batch)

	after := countQuery(t, ts.URL, "triangle")
	if wantN := oracleCount(t, want, "triangle"); after != wantN {
		t.Fatalf("post-update count %d, want %d (stale plan or graph served)", after, wantN)
	}
	st1 := s.Stats()
	if st1.Graph.Epoch != 1 {
		t.Fatalf("stats epoch %d, want 1", st1.Graph.Epoch)
	}
	if st1.Graph.Fingerprint == st0.Graph.Fingerprint {
		t.Fatal("fingerprint unchanged across an effective mutation")
	}
	if want := fmt.Sprintf("%016x", want.Fingerprint()); st1.Graph.Fingerprint != want {
		t.Fatalf("fingerprint %s, want %s", st1.Graph.Fingerprint, want)
	}
	// The post-update query was the fresh cache's first sight of the
	// pattern: a miss, not a hit against the stale entry.
	if st1.Plans.Misses != 1 || st1.Plans.Hits != 0 {
		t.Fatalf("post-update plan cache: %d misses %d hits, want a fresh cache (1 miss, 0 hits)",
			st1.Plans.Misses, st1.Plans.Hits)
	}
	if st1.Mutations.Batches != 1 || st1.Mutations.EdgesRemoved != 1 {
		t.Fatalf("mutation stats: %+v", st1.Mutations)
	}
	if want := fmt.Sprintf("%016x", s.overlay.Fingerprint()); st1.Mutations.EdgeFingerprint != want {
		t.Fatalf("edge fingerprint %s, want %s", st1.Mutations.EdgeFingerprint, want)
	}
}

// TestUpdateValidation: malformed bodies and batches are rejected before the
// overlay changes, and the epoch never advances for a rejected update.
func TestUpdateValidation(t *testing.T) {
	g := testGraph(t)
	s, ts := newTestServer(t, g, Config{})
	cases := []struct {
		name, body string
		status     int
	}{
		{"bad json", "{", http.StatusBadRequest},
		{"unknown field", `{"ad":[[0,1]]}`, http.StatusBadRequest},
		{"trailing content", `{"add":[[0,1]]}{"add":[[1,2]]}`, http.StatusBadRequest},
		{"wrong arity", `{"add":[[0,1,2]]}`, http.StatusBadRequest},
		{"one endpoint", `{"add":[[7]]}`, http.StatusBadRequest},
		{"negative id", `{"add":[[-1,2]]}`, http.StatusBadRequest},
		{"huge id", `{"add":[[0,4294967296]]}`, http.StatusBadRequest},
		{"string id", `{"add":[["a",2]]}`, http.StatusBadRequest},
		{"empty batch", `{"add":[],"remove":[]}`, http.StatusBadRequest},
		{"self-loop", `{"add":[[3,3]]}`, http.StatusBadRequest},
		{"out of range vertex", `{"add":[[0,100000]]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if _, code := postUpdate(t, ts.URL, tc.body); code != tc.status {
			t.Fatalf("%s: status %d, want %d", tc.name, code, tc.status)
		}
	}
	resp, err := http.Get(ts.URL + "/update")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /update: status %d, want 405", resp.StatusCode)
	}
	if st := s.Stats(); st.Graph.Epoch != 0 || st.Mutations.Batches != 0 {
		t.Fatalf("rejected updates advanced state: %+v", st.Mutations)
	}
}

// TestUpdateNoopBatch: an accepted all-noop batch advances the epoch but
// leaves the graph, fingerprint, and plan cache untouched.
func TestUpdateNoopBatch(t *testing.T) {
	g := graph.FromEdges(4, [][2]graph.VertexID{{0, 1}, {1, 2}})
	s, ts := newTestServer(t, g, Config{})
	countQuery(t, ts.URL, "triangle") // warm the plan cache
	st0 := s.Stats()

	ur, code := postUpdate(t, ts.URL, `{"add":[[0,1]],"remove":[[0,3]]}`)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if ur.Epoch != 1 || ur.Added != 0 || ur.Removed != 0 || ur.Noops != 2 {
		t.Fatalf("noop batch result: %+v", ur)
	}
	st1 := s.Stats()
	if st1.Graph.Epoch != 1 {
		t.Fatalf("epoch %d, want 1", st1.Graph.Epoch)
	}
	if st1.Graph.Fingerprint != st0.Graph.Fingerprint {
		t.Fatal("noop batch changed the fingerprint")
	}
	// The plan cache survives a noop epoch: same entry, now hit.
	countQuery(t, ts.URL, "triangle")
	if st := s.Stats(); st.Plans.Hits != 1 {
		t.Fatalf("plan hits %d, want 1 (cache should survive a noop epoch)", st.Plans.Hits)
	}
}

// TestUpdateCompaction: once the pending patch set reaches CompactThreshold
// the overlay folds it into a fresh base, with epoch and fingerprint intact.
func TestUpdateCompaction(t *testing.T) {
	g := graph.FromEdges(10, [][2]graph.VertexID{{0, 1}})
	s, ts := newTestServer(t, g, Config{CompactThreshold: 3})

	if ur, _ := postUpdate(t, ts.URL, `{"add":[[1,2],[2,3]]}`); ur.Compacted || ur.PatchEdges != 2 {
		t.Fatalf("below threshold: %+v", ur)
	}
	ur, _ := postUpdate(t, ts.URL, `{"add":[[3,4],[4,5]]}`)
	if !ur.Compacted || ur.PatchEdges != 0 {
		t.Fatalf("at threshold: compacted=%v patch=%d, want compaction to empty the patch", ur.Compacted, ur.PatchEdges)
	}
	st := s.Stats()
	if st.Mutations.Compactions != 1 || st.Mutations.PatchEdges != 0 {
		t.Fatalf("mutation stats after compaction: %+v", st.Mutations)
	}
	if got, want := countQuery(t, ts.URL, "edges(0-1)"), oracleCount(t, s.state.Load().g, "edges(0-1)"); got != want {
		t.Fatalf("post-compaction count %d, want %d", got, want)
	}
}

// readNDJSONLine reads one line from a subscription stream into out.
func readNDJSONLine(t *testing.T, br *bufio.Reader, out any) {
	t.Helper()
	line, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatalf("reading subscription line: %v (got %q)", err, line)
	}
	if err := json.Unmarshal(line, out); err != nil {
		t.Fatalf("bad subscription line %q: %v", line, err)
	}
}

// TestSubscribeStreamsGainedAndLost is the standing-query acceptance test:
// a subscriber hears exactly the embeddings gained and lost by each /update
// batch, with a per-epoch summary, and the stream closes cleanly on Drain.
func TestSubscribeStreamsGainedAndLost(t *testing.T) {
	g := graph.FromEdges(5, [][2]graph.VertexID{{0, 1}, {1, 2}})
	s, ts := newTestServer(t, g, Config{Workers: 2})

	resp, err := http.Post(ts.URL+"/subscribe?pattern=triangle", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("subscribe status %d", resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	var hello subHello
	readNDJSONLine(t, br, &hello)
	if hello.Pattern != "triangle" || hello.Epoch != 0 {
		t.Fatalf("hello line: %+v", hello)
	}

	// Epoch 1: close the wedge 0-1-2 into a triangle.
	ur, code := postUpdate(t, ts.URL, `{"add":[[0,2]]}`)
	if code != http.StatusOK {
		t.Fatalf("update status %d", code)
	}
	if len(ur.Deltas) != 1 || ur.Deltas[0].Gained != 1 || ur.Deltas[0].Lost != 0 {
		t.Fatalf("update deltas: %+v", ur.Deltas)
	}
	var gain subEventLine
	readNDJSONLine(t, br, &gain)
	if gain.Op != "gain" || gain.Epoch != 1 || len(gain.Embedding) != 3 {
		t.Fatalf("gain line: %+v", gain)
	}
	seen := map[graph.VertexID]bool{}
	for _, v := range gain.Embedding {
		seen[v] = true
	}
	if !seen[0] || !seen[1] || !seen[2] {
		t.Fatalf("gained embedding %v, want the triangle {0,1,2}", gain.Embedding)
	}
	var sum1 subSummaryLine
	readNDJSONLine(t, br, &sum1)
	if !sum1.Done || sum1.Epoch != 1 || sum1.Gained != 1 || sum1.Lost != 0 {
		t.Fatalf("epoch 1 summary: %+v", sum1)
	}

	// Epoch 2: break the triangle again; the same embedding is lost.
	if _, code := postUpdate(t, ts.URL, `{"remove":[[1,2]]}`); code != http.StatusOK {
		t.Fatalf("update 2 status %d", code)
	}
	var lose subEventLine
	readNDJSONLine(t, br, &lose)
	if lose.Op != "lose" || lose.Epoch != 2 {
		t.Fatalf("lose line: %+v", lose)
	}
	var sum2 subSummaryLine
	readNDJSONLine(t, br, &sum2)
	if sum2.Gained != 0 || sum2.Lost != 1 {
		t.Fatalf("epoch 2 summary: %+v", sum2)
	}
	if st := s.Stats(); st.Mutations.Subscribers != 1 || st.Mutations.DeltaGained != 1 || st.Mutations.DeltaLost != 1 {
		t.Fatalf("mutation stats: %+v", st.Mutations)
	}

	// Drain closes the standing stream with a final line.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	var closed subClosed
	readNDJSONLine(t, br, &closed)
	if !closed.Done || closed.Reason != "draining" {
		t.Fatalf("close line: %+v", closed)
	}
	// Post-drain: new subscriptions and updates are refused.
	r2, err := http.Post(ts.URL+"/subscribe?pattern=triangle", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain subscribe: status %d, want 503", r2.StatusCode)
	}
	if _, code := postUpdate(t, ts.URL, `{"add":[[1,3]]}`); code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain update: status %d, want 503", code)
	}
}

// TestSubscribeSharedDeltaAcrossSpellings: two subscribers spelling the same
// canonical pattern differently share one delta enumeration per epoch.
func TestSubscribeSharedDeltaAcrossSpellings(t *testing.T) {
	g := graph.FromEdges(5, [][2]graph.VertexID{{0, 1}, {1, 2}})
	s, ts := newTestServer(t, g, Config{Workers: 2})

	readers := make([]*bufio.Reader, 2)
	for i, src := range []string{"triangle", "cycle(3)"} {
		resp, err := http.Post(ts.URL+"/subscribe?pattern="+src, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		readers[i] = bufio.NewReader(resp.Body)
		var hello subHello
		readNDJSONLine(t, readers[i], &hello)
	}
	ur, code := postUpdate(t, ts.URL, `{"add":[[0,2]]}`)
	if code != http.StatusOK {
		t.Fatalf("update status %d", code)
	}
	if len(ur.Deltas) != 1 {
		t.Fatalf("distinct canonical patterns: %d delta entries, want 1 shared", len(ur.Deltas))
	}
	if ur.Deltas[0].Subscribers != 2 {
		t.Fatalf("delta subscribers %d, want 2", ur.Deltas[0].Subscribers)
	}
	for i, br := range readers {
		var gain subEventLine
		readNDJSONLine(t, br, &gain)
		var sum subSummaryLine
		readNDJSONLine(t, br, &sum)
		if gain.Op != "gain" || sum.Gained != 1 {
			t.Fatalf("reader %d: gain=%+v sum=%+v", i, gain, sum)
		}
	}
	if st := s.Stats(); st.Mutations.DeltaRuns != 1 {
		t.Fatalf("delta runs %d, want 1 (one anchored run for one changed edge)", st.Mutations.DeltaRuns)
	}
}

// TestCensusInvalidatedOnUpdate: the per-k census result cache must not
// answer for the previous epoch's graph.
func TestCensusInvalidatedOnUpdate(t *testing.T) {
	g := graph.FromEdges(6, [][2]graph.VertexID{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	_, ts := newTestServer(t, g, Config{Workers: 2})

	var c0 censusResponse
	if code := getJSON(t, ts.URL+"/query?pattern=census(3)", &c0); code != http.StatusOK {
		t.Fatalf("census status %d", code)
	}
	if _, code := postUpdate(t, ts.URL, `{"add":[[0,2],[4,5]]}`); code != http.StatusOK {
		t.Fatalf("update status %d", code)
	}
	var c1 censusResponse
	if code := getJSON(t, ts.URL+"/query?pattern=census(3)", &c1); code != http.StatusOK {
		t.Fatalf("census status %d", code)
	}
	if c1.Cached {
		t.Fatal("post-update census answered from the stale result cache")
	}
	want := mutate(t, g, graph.Batch{Add: [][2]graph.VertexID{{0, 2}, {4, 5}}})
	oracle, err := esu.Count(want, 3, esu.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if c1.Subgraphs != oracle.Subgraphs {
		t.Fatalf("post-update census %d subgraphs, oracle %d", c1.Subgraphs, oracle.Subgraphs)
	}
}

// TestUpdateKillScheduleDelta: a scheduled worker kill inside the delta
// enumeration recovers from its barrier checkpoint and the standing query
// still hears the exact gained set, once — the serving face of the delta
// fault-tolerance differential. The sweep puts the kill at every barrier of
// the anchored run: a recovery replays supersteps, and a replay re-finds what
// the lost attempt had already collected, which must not reach the stream
// twice. The standing query is a 6-cycle: anchored on the added edge, it
// needs four expansions, one per superstep, so every kill fires and the last
// lands on the superstep that finds the cycle. An anchored house completes by
// superstep 2, which leaves a kill at 3 no barrier to land on.
func TestUpdateKillScheduleDelta(t *testing.T) {
	for step := 0; step <= 3; step++ {
		t.Run(fmt.Sprintf("kill@%d", step), func(t *testing.T) {
			g := graph.FromEdges(8, [][2]graph.VertexID{
				{0, 1}, {0, 2}, {0, 3}, {1, 4}, {1, 6}, {2, 7}, {3, 4}, {3, 5}, {4, 5},
			})
			s, ts := newTestServer(t, g, Config{Workers: 2, CheckpointEvery: 1, MaxRecoveries: 4})
			s.testExchange = faulttest.Schedule(t, nil, bsp.StepFault{Step: step, Kind: bsp.StepFaultKill, Worker: 0})

			resp, err := http.Post(ts.URL+"/subscribe?pattern=cycle(6)", "", nil)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			br := bufio.NewReader(resp.Body)
			var hello subHello
			readNDJSONLine(t, br, &hello)

			ur, code := postUpdate(t, ts.URL, `{"add":[[2,5]]}`)
			if code != http.StatusOK {
				t.Fatalf("update status %d", code)
			}
			if len(ur.Deltas) != 1 || ur.Deltas[0].Error != "" {
				t.Fatalf("update deltas under faults: %+v", ur.Deltas)
			}
			if ur.Deltas[0].Gained != 1 {
				t.Fatalf("gained %d under kill schedule, want 1", ur.Deltas[0].Gained)
			}
			var gain subEventLine
			readNDJSONLine(t, br, &gain)
			var sum subSummaryLine
			readNDJSONLine(t, br, &sum)
			if gain.Op != "gain" || !sum.Done || sum.Gained != 1 {
				t.Fatalf("stream under faults: want one gain line and a summary with gained 1, got gain=%+v then %+v", gain, sum)
			}
		})
	}
}
