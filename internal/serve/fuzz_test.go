package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"psgl/internal/graph"
)

// FuzzUpdateBatchDecode drives arbitrary bytes through the /update body
// decoder and, when a batch survives validation, through a real overlay.
// Invariants under fuzz:
//
//   - decodeUpdateBatch never panics and never returns an empty batch
//     without an error;
//   - every decoded edge has exactly two in-range endpoints (the decoder's
//     validation contract — ApplyBatch re-checks bounds against the graph);
//   - after a successful ApplyBatch, the overlay's incremental edge
//     fingerprint equals the fingerprint of the rebuilt snapshot — the
//     maintained and recomputed views of the mutated graph agree.
func FuzzUpdateBatchDecode(f *testing.F) {
	f.Add([]byte(`{"add":[[0,1]]}`))
	f.Add([]byte(`{"add":[[0,1],[0,1]],"remove":[[0,1]]}`))             // dup insert + delete of the same edge
	f.Add([]byte(`{"add":[[-1,2],[0,4294967296],["x",1],[3]]}`))        // malformed vertex ids and arity
	f.Add([]byte(`{"remove":[[1,0],[0,1]]}`))                           // same undirected edge, both spellings
	f.Add([]byte(`{"add":[[2,2]]}`))                                    // self-loop (overlay rejects)
	f.Add([]byte(`{"ad":[[0,1]]}`))                                     // unknown field
	f.Add([]byte(`{"add":[[0,1]]}{"add":[[1,2]]}`))                     // trailing content
	f.Add([]byte(`{"add":[],"remove":[]}`))                             // empty batch
	f.Add([]byte(`{"add":[[0,1],[1,2],[0,2]],"remove":[[0,1],[5,6]]}`)) // mixed effective + out-of-range

	base := graph.FromEdges(8, [][2]graph.VertexID{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	f.Fuzz(func(t *testing.T, body []byte) {
		batch, err := decodeUpdateBatch(body)
		if err != nil {
			return
		}
		if len(batch.Add)+len(batch.Remove) == 0 {
			t.Fatal("decoder accepted an empty batch")
		}
		for _, e := range append(append([][2]graph.VertexID{}, batch.Add...), batch.Remove...) {
			if e[0] < 0 || e[1] < 0 {
				t.Fatalf("decoder passed a negative vertex id: %v", e)
			}
		}
		ov := graph.NewOverlay(base)
		if _, err := ov.ApplyBatch(batch); err != nil {
			return // out-of-range vertex or self-loop; the overlay is unchanged
		}
		if got, want := ov.Fingerprint(), ov.Snapshot().EdgeFingerprint(); got != want {
			t.Fatalf("incremental fingerprint %016x, snapshot fingerprint %016x", got, want)
		}
	})
}

// FuzzQueryParams drives an arbitrary raw query string through /query
// against a small fixed graph, with every deadline capped at one second.
// Invariants under fuzz:
//
//   - the status is 200, a 4xx or a 504 — never a 500, never a panic;
//   - no query counts as failed, so no stream ends in an error other than
//     its deadline;
//   - the response returns within the deadline plus a margin, whatever the
//     parameters ask for.
func FuzzQueryParams(f *testing.F) {
	for _, seed := range []string{
		"pattern=triangle",
		"pattern=cycle(4)&count_only=1",
		"pattern=census(3)",
		"pattern=census(5)&workers=3",
		"pattern=edges(0-1,1-2,2-0)&limit=5",
		"pattern=clique(4)&limit=0&count_only=false",
		"pattern=pg3&deadline_ms=1&workers=256",
		"pattern=path(5)&deadline_ms=9223372036854775807",
		"pattern=cycle(16)&count_only=true",
		"pattern=star(15)",
		"pattern=edges(0-0)",
		"pattern=triangle&limit=-1&deadline_ms=0&workers=0",
		"pattern=census(99)&count_only=maybe",
		"pattern=%zz&limit=%",
		"",
	} {
		f.Add(seed)
	}

	const deadline = time.Second
	g := graph.FromEdges(12, [][2]graph.VertexID{
		{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 4}, {2, 3}, {2, 5}, {3, 6}, {4, 5}, {4, 7},
		{5, 6}, {5, 8}, {6, 9}, {7, 8}, {7, 10}, {8, 9}, {8, 11}, {9, 11}, {10, 11}, {1, 3},
	})
	s, err := New(g, Config{Workers: 2, DefaultDeadline: deadline, MaxDeadline: deadline})
	if err != nil {
		f.Fatal(err)
	}
	h := s.Handler()
	f.Fuzz(func(t *testing.T, raw string) {
		req := httptest.NewRequest(http.MethodGet, "/query", nil)
		req.URL.RawQuery = raw
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, req)
		if took := time.Since(start); took > deadline+2*time.Second {
			t.Fatalf("query %q took %v, past its %v deadline", raw, took, deadline)
		}
		if c := rec.Code; c != http.StatusOK && c != http.StatusGatewayTimeout && (c < 400 || c > 499) {
			t.Fatalf("query %q: status %d: %s", raw, c, rec.Body)
		}
		if n := s.failed.Load(); n != 0 {
			t.Fatalf("query %q: %d failed queries: %s", raw, n, rec.Body)
		}
	})
}
