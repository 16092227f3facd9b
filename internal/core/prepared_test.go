package core

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"testing"

	"psgl/internal/bsp"
	"psgl/internal/centralized"
	"psgl/internal/gen"
	"psgl/internal/graph"
	"psgl/internal/pattern"
)

// withoutClocks renders a run's Stats minus the fields that measure time
// (WorkerTime, SimulatedMakespan, WallTime). The fields are named one by one,
// not printed with %+v, so the fingerprints pinned over it hold when a field
// is added to or deleted from Stats. The zeros printed for CompressedFrames,
// CompressedWireBytes, CompressedRawBytes and Recoveries stand where deleted
// fields (compressed-frame counters and in-run recoveries, 0 on every pinned
// run) were printed when the fingerprints were recorded.
func withoutClocks(st Stats) string {
	return fmt.Sprintf("Supersteps:%d GpsiGenerated:%d GpsiProcessed:%d "+
		"PrunedByDegree:%d PrunedByOrder:%d PrunedByIndex:%d PrunedByInjectivity:%d "+
		"PrunedByVerify:%d PrunedByLabel:%d PrunedByFilter:%d EdgeIndexQueries:%d "+
		"BitsetAndCandidates:%d CompressedFrames:0 CompressedWireBytes:0 "+
		"CompressedRawBytes:0 Results:%d InitialVertex:%d Recoveries:0 "+
		"WorkerMessages:%v LoadUnits:%v PerStepMessages:%v LoadMakespan:%v EdgeIndexBytes:%d",
		st.Supersteps, st.GpsiGenerated, st.GpsiProcessed,
		st.PrunedByDegree, st.PrunedByOrder, st.PrunedByIndex, st.PrunedByInjectivity,
		st.PrunedByVerify, st.PrunedByLabel, st.PrunedByFilter, st.EdgeIndexQueries,
		st.BitsetAndCandidates, st.Results, st.InitialVertex,
		st.WorkerMessages, st.LoadUnits, st.PerStepMessages, st.LoadMakespan, st.EdgeIndexBytes)
}

// TestPreparedRunMatchesRunContext: one Prepared, reused for every catalog
// pattern and strategy, reports what a cold RunContext reports, counter for
// counter — the cold path is the same code with a Prepare in front.
func TestPreparedRunMatchesRunContext(t *testing.T) {
	g := gen.ChungLu(70, 300, 2.3, 1)
	for _, variant := range []struct {
		name   string
		mutate func(*Options)
	}{
		{"default", func(*Options) {}},
		{"identity-order", func(o *Options) { o.IdentityOrder = true }},
		{"hub-bitmap", func(o *Options) { o.bitmapMinDegree = 8 }},
	} {
		opts := Options{Workers: 4, Seed: 1}
		variant.mutate(&opts)
		pr := Prepare(g, opts)
		for _, p := range []*pattern.Pattern{pattern.PG1(), pattern.PG2(), pattern.PG3(), pattern.PG4(), pattern.PG5()} {
			cold, err := RunContext(context.Background(), g, p, opts)
			if err != nil {
				t.Fatal(err)
			}
			warm, err := pr.RunContext(context.Background(), p, opts)
			if err != nil {
				t.Fatal(err)
			}
			if a, b := withoutClocks(cold.Stats), withoutClocks(warm.Stats); a != b {
				t.Fatalf("%s/%s: prepared run diverges from RunContext:\n cold %s\n warm %s",
					variant.name, p.Name(), a, b)
			}
		}
	}
}

// hashPrepared digests everything a Prepared holds that a run reads: the
// owner array, the relabelled graph and its map back to caller ids, every hub
// row, and the edge index's answers over a band of vertex pairs.
func hashPrepared(pr *Prepared) uint64 {
	h := fnv.New64a()
	fmt.Fprint(h, pr.owner, pr.orig)
	n := pr.g.NumVertices()
	for v := 0; v < n; v++ {
		vd := graph.VertexID(v)
		fmt.Fprint(h, pr.g.Neighbors(vd), pr.bitmap.Row(vd))
		for d := 1; d <= 3 && pr.paper != nil && pr.paper.ix != nil; d++ {
			fmt.Fprint(h, pr.paper.ix.MayHaveEdge(vd, graph.VertexID((v+d)%n)))
		}
	}
	return h.Sum64()
}

// TestPreparedSharedByConcurrentRuns shares one Prepared between eight
// concurrent runs — full counts of three patterns, MaxResults-truncated
// streams, and runs cancelled before they start — and checks, under -race,
// that every full count is the oracle's, every truncated run stopped early
// with at least its cap, and the shared state was read, never written.
func TestPreparedSharedByConcurrentRuns(t *testing.T) {
	g := gen.ChungLu(1500, 6000, 1.8, 7)
	opts := Options{Workers: 3, Seed: 5, bitmapMinDegree: 40}
	pr := Prepare(g, opts)
	before := hashPrepared(pr)
	full := map[string]int64{}
	for _, p := range []*pattern.Pattern{pattern.PG1(), pattern.PG2(), pattern.PG3()} {
		full[p.Name()] = centralized.CountInstances(p, g)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := []*pattern.Pattern{pattern.PG1(), pattern.PG2(), pattern.PG3()}[i%3]
			o := opts
			switch {
			case i < 4: // full counts
				res, err := pr.RunContext(context.Background(), p, o)
				if err != nil || res.Count != full[p.Name()] || res.Truncated {
					t.Errorf("run %d (%s): full run gave %+v, %v (oracle %d)", i, p.Name(), res, err, full[p.Name()])
				}
			case i < 6: // truncated
				o.MaxResults = 5
				res, err := pr.RunContext(context.Background(), p, o)
				if err != nil || !res.Truncated || res.Count < 5 || res.Count >= full[p.Name()] {
					t.Errorf("run %d (%s): capped run gave %+v, %v (full %d)", i, p.Name(), res, err, full[p.Name()])
				}
			default: // cancelled
				if _, err := pr.RunContext(canceled, p, o); !errors.Is(err, context.Canceled) {
					t.Errorf("run %d: err = %v, want context.Canceled", i, err)
				}
			}
		}(i)
	}
	wg.Wait()
	if after := hashPrepared(pr); after != before {
		t.Fatalf("shared Prepared was mutated: digest %#x before, %#x after", before, after)
	}
}

// TestPreparedMismatchIsTypedError: every Options field Prepare reads is
// checked on use; a different worker count is available without a rebuild
// through ForWorkers, and counts the same. A partitioned state refuses every
// configuration but strict, in process and unresumed, before a goroutine or
// a listener starts and before a store is touched.
func TestPreparedMismatchIsTypedError(t *testing.T) {
	g := gen.ChungLu(300, 1200, 2.0, 3)
	base := Options{Workers: 4, Seed: 9}
	pr := Prepare(g, base)
	want, err := pr.RunContext(context.Background(), pattern.PG1(), base)
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*Options){
		"workers":           func(o *Options) { o.Workers = 3 },
		"seed":              func(o *Options) { o.Seed = 10 },
		"identity order":    func(o *Options) { o.IdentityOrder = true },
		"bitmap min degree": func(o *Options) { o.bitmapMinDegree = 5 },
	} {
		o := base
		mutate(&o)
		if _, err := pr.RunContext(context.Background(), pattern.PG1(), o); !errors.Is(err, ErrPreparedMismatch) {
			t.Errorf("%s: err = %v, want ErrPreparedMismatch", name, err)
		}
	}

	partitioned := preparePartitioned(g, base)
	if _, err := partitioned.RunContext(context.Background(), pattern.PG1(), base); err != nil {
		t.Fatalf("strict in-process partitioned run: %v", err)
	}
	store := bsp.NewMemCheckpointStore()
	for name, mutate := range map[string]func(*Options){
		"partitioned async":      func(o *Options) { o.AsyncExchange = true },
		"partitioned tcp":        func(o *Options) { o.Exchange = bsp.NewTCPExchangeFactory() },
		"partitioned checkpoint": func(o *Options) { o.CheckpointEvery, o.CheckpointStore = 1, store },
		"partitioned resume":     func(o *Options) { o.ResumeFrom = store },
	} {
		o := base
		mutate(&o)
		before := runtime.NumGoroutine()
		if _, err := partitioned.RunContext(context.Background(), pattern.PG1(), o); !errors.Is(err, ErrPreparedMismatch) {
			t.Errorf("%s: err = %v, want ErrPreparedMismatch", name, err)
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("%s: %d goroutines after the refusal, %d before", name, after, before)
		}
	}
	if store.Saves() != 0 {
		t.Errorf("a refused run saved %d checkpoints", store.Saves())
	}

	three := pr.ForWorkers(3)
	if three == pr || three.graphIndex != pr.graphIndex {
		t.Fatal("ForWorkers must re-partition over the same relabelled graph and indexes")
	}
	if pr.ForWorkers(4) != pr {
		t.Fatal("ForWorkers with the built worker count must return the receiver")
	}
	o := base
	o.Workers = 3
	got, err := three.RunContext(context.Background(), pattern.PG1(), o)
	if err != nil || got.Count != want.Count {
		t.Fatalf("3-worker view: count %v err %v, want %d", got, err, want.Count)
	}
	cold, err := RunContext(context.Background(), g, pattern.PG1(), o)
	if err != nil || withoutClocks(cold.Stats) != withoutClocks(got.Stats) {
		t.Fatalf("3-worker view diverges from a cold 3-worker run (err %v)", err)
	}
}

// TestPreparedOwnerIsThePartition: the owner array a run routes and checks
// ownership by is the random partition of Section 5.1, vertex for vertex:
// owner[r] is the partition of r's caller id, so relabelling by degree rank
// moves no vertex to another worker.
func TestPreparedOwnerIsThePartition(t *testing.T) {
	g := gen.ChungLu(500, 2000, 1.8, 3)
	pr := Prepare(g, Options{Workers: 4, Seed: 7})
	if pr.orig == nil {
		t.Fatal("a degree-order Prepared must relabel")
	}
	for _, k := range []int{4, 1, 3, 16} {
		view := pr.ForWorkers(k)
		part := graph.NewPartition(k, 7)
		for r := 0; r < g.NumVertices(); r++ {
			if got, want := int(view.owner[r]), part.Owner(pr.orig[r]); got != want {
				t.Fatalf("K=%d: owner[%d] = %d, partition of caller id %d says %d", k, r, got, pr.orig[r], want)
			}
		}
	}
}
