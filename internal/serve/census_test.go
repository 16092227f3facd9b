package serve

import (
	"fmt"
	"net/http"
	"testing"

	"psgl/internal/centralized"
	"psgl/internal/esu"
	"psgl/internal/gen"
	"psgl/internal/graph"
	"psgl/internal/pattern"
)

func TestCensusQueryEndToEnd(t *testing.T) {
	g := testGraph(t)
	s, ts := newTestServer(t, g, Config{MaxInFlight: 2, MaxQueue: 4})

	var first censusResponse
	if code := getJSON(t, ts.URL+"/query?pattern=census(3)", &first); code != 200 {
		t.Fatalf("census(3) status %d", code)
	}
	// Cross-check against a direct engine run.
	direct, err := esu.Count(g, 3, esu.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if first.Subgraphs != direct.Subgraphs {
		t.Fatalf("server census %d subgraphs, direct %d", first.Subgraphs, direct.Subgraphs)
	}
	if len(first.Classes) != len(direct.Classes) {
		t.Fatalf("server %d classes, direct %d", len(first.Classes), len(direct.Classes))
	}
	for i, c := range direct.Classes {
		if first.Classes[i].Code != c.Code || first.Classes[i].Count != c.Count {
			t.Fatalf("class %d: server %+v, direct %+v", i, first.Classes[i], c)
		}
	}
	if first.Cached {
		t.Fatal("first census claims a result-cache hit")
	}
	if first.Cache.Misses == 0 {
		t.Fatal("first census reports no canon-cache misses")
	}

	// Second identical census: answered from the result cache.
	var second censusResponse
	if code := getJSON(t, ts.URL+"/query?pattern=census(3)", &second); code != 200 {
		t.Fatalf("repeat census status %d", code)
	}
	if !second.Cached {
		t.Fatal("repeat census did not hit the result cache")
	}
	if second.Subgraphs != first.Subgraphs {
		t.Fatalf("cached census changed the count: %d vs %d", second.Subgraphs, first.Subgraphs)
	}

	// /stats carries the census section with the canon hit rate.
	st := s.Stats()
	if st.Census.Queries != 2 || st.Census.ResultCacheHits != 1 {
		t.Fatalf("census stats: %+v", st.Census)
	}
	if st.Census.CanonMisses == 0 {
		t.Fatalf("census stats report no canon misses: %+v", st.Census)
	}
	// The cached repeat looked nothing up: the section's lookups are the
	// first run's, and its hit rate is theirs.
	if st.Census.CanonHits != first.Cache.Hits || st.Census.CanonMisses != first.Cache.Misses ||
		st.Census.CanonHitRate != first.Cache.HitRate {
		t.Fatalf("census stats %+v, first run's cache report %+v", st.Census, first.Cache)
	}

	// The per-query observer carried the census counters into its snapshot.
	snap := s.lastObs.Load().Snapshot()
	if snap.CensusSubgraphs != 0 {
		t.Fatalf("cached census should not re-enumerate, observer saw %d subgraphs", snap.CensusSubgraphs)
	}
}

func TestCensusBadRequests(t *testing.T) {
	g := testGraph(t)
	_, ts := newTestServer(t, g, Config{})
	for _, q := range []string{"census(1)", "census(6)", "census(x)", "census(3"} {
		if code := getJSON(t, ts.URL+"/query?pattern="+q, nil); code != 400 {
			t.Fatalf("%s: status %d, want 400", q, code)
		}
	}
}

func TestCensusRangeMatchesEngine(t *testing.T) {
	// The DSL's census range must stay in lockstep with the engine's.
	if pattern.MinCensusK != esu.MinK || pattern.MaxCensusK != esu.MaxK {
		t.Fatalf("pattern census range [%d,%d] != esu range [%d,%d]",
			pattern.MinCensusK, pattern.MaxCensusK, esu.MinK, esu.MaxK)
	}
	g := testGraph(t)
	_, ts := newTestServer(t, g, Config{})
	for k := esu.MinK; k <= 4; k++ {
		var resp censusResponse
		if code := getJSON(t, ts.URL+fmt.Sprintf("/query?pattern=census(%d)", k), &resp); code != 200 {
			t.Fatalf("census(%d): status %d", k, code)
		}
		if resp.K != k {
			t.Fatalf("census(%d) answered k=%d", k, resp.K)
		}
	}
}

// TestCensusServedAboveOldCap: census(3) on a resident graph past 65 536
// vertices answers 200 with its histogram — the triangle class is the
// oracle's triangle count and the total is Σ C(deg, 2) − 2·triangles.
func TestCensusServedAboveOldCap(t *testing.T) {
	g := gen.ChungLu(70000, 140000, 2.5, 3)
	if g.NumVertices() <= 1<<16 {
		t.Fatalf("graph has %d vertices, the test needs more than 65 536", g.NumVertices())
	}
	_, ts := newTestServer(t, g, Config{Workers: 2})
	var resp censusResponse
	if code := getJSON(t, ts.URL+"/query?pattern=census(3)", &resp); code != http.StatusOK {
		t.Fatalf("census(3) on %d vertices: status %d", g.NumVertices(), code)
	}
	tri := centralized.CountTriangles(g)
	var paths int64
	for v := 0; v < g.NumVertices(); v++ {
		d := int64(g.Degree(graph.VertexID(v)))
		paths += d * (d - 1) / 2
	}
	if want := paths - 2*tri; resp.Subgraphs != want {
		t.Fatalf("served %d subgraphs, want %d", resp.Subgraphs, want)
	}
	var got int64
	for _, c := range resp.Classes {
		if c.Code == 0b111 {
			got = c.Count
		}
	}
	if got != tri {
		t.Fatalf("served triangle class %d, oracle %d", got, tri)
	}
}
