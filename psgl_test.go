package psgl_test

// Black-box tests of the public API: everything here goes through the psgl
// package surface only, as a downstream user would.

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"psgl"
)

func TestQuickstartFlow(t *testing.T) {
	g := psgl.GenerateChungLu(2000, 8000, 1.8, 42)
	res, err := psgl.List(g, psgl.Square(), psgl.NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Count <= 0 {
		t.Fatal("no squares found in a dense power-law graph")
	}
	if want := psgl.CountCentralized(g, psgl.Square()); res.Count != want {
		t.Fatalf("List=%d oracle=%d", res.Count, want)
	}
}

func TestCountMatchesList(t *testing.T) {
	g := psgl.GenerateErdosRenyi(500, 2500, 7)
	res, err := psgl.List(g, psgl.Triangle(), psgl.NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	n, err := psgl.Count(g, psgl.Triangle(), psgl.NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	if n != res.Count {
		t.Fatalf("Count=%d List=%d", n, res.Count)
	}
}

func TestAllEnginesAgreeOnPublicAPI(t *testing.T) {
	g := psgl.GenerateErdosRenyi(150, 900, 3)
	for _, p := range []*psgl.Pattern{psgl.Triangle(), psgl.Square(), psgl.Diamond(), psgl.FourClique()} {
		oracle := psgl.CountCentralized(g, p)
		ps, err := psgl.Count(g, p, psgl.NewOptions())
		if err != nil {
			t.Fatal(err)
		}
		af, err := psgl.CountAfrati(g, p, psgl.AfratiOptions{Buckets: 4})
		if err != nil {
			t.Fatal(err)
		}
		sg, err := psgl.CountSGIA(g, p, psgl.SGIAOptions{})
		if err != nil {
			t.Fatal(err)
		}
		oh, err := psgl.CountOneHop(g, p, psgl.OneHopOptions{Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		if ps != oracle || af != oracle || sg != oracle || oh != oracle {
			t.Errorf("%s: oracle=%d psgl=%d afrati=%d sgia=%d onehop=%d",
				p.Name(), oracle, ps, af, sg, oh)
		}
	}
}

func TestTriangleFastPathAgrees(t *testing.T) {
	g := psgl.GenerateChungLu(3000, 12000, 1.7, 11)
	if got, want := psgl.CountTriangles(g), psgl.CountCentralized(g, psgl.Triangle()); got != want {
		t.Fatalf("CountTriangles=%d oracle=%d", got, want)
	}
}

func TestEdgeListRoundTripPublic(t *testing.T) {
	g := psgl.GenerateErdosRenyi(100, 400, 5)
	var buf bytes.Buffer
	if err := psgl.SaveEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := psgl.LoadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatalf("edges %d -> %d after round trip", g.NumEdges(), g2.NumEdges())
	}
}

func TestCustomPattern(t *testing.T) {
	// Bowtie: two triangles sharing vertex 2.
	p, err := psgl.NewPattern("bowtie", 5, [][2]int{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 2}})
	if err != nil {
		t.Fatal(err)
	}
	g := psgl.GenerateErdosRenyi(80, 500, 9)
	got, err := psgl.Count(g, p, psgl.NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	if want := psgl.CountCentralized(g, p); got != want {
		t.Fatalf("bowtie: psgl=%d oracle=%d", got, want)
	}
}

func TestPatternByNamePublic(t *testing.T) {
	p, err := psgl.PatternByName("cycle5")
	if err != nil {
		t.Fatal(err)
	}
	if p.N() != 5 {
		t.Fatalf("cycle5 has %d vertices", p.N())
	}
	if _, err := psgl.PatternByName("nonsense"); err == nil {
		t.Fatal("bad name accepted")
	}
}

func TestOOMSurfacedPublicly(t *testing.T) {
	g := psgl.GenerateChungLu(1000, 5000, 1.7, 2)
	opts := psgl.NewOptions()
	opts.MaxIntermediate = 50
	_, err := psgl.List(g, psgl.Square(), opts)
	if !errors.Is(err, psgl.ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
}

func TestBuilderPublic(t *testing.T) {
	b := psgl.NewGraphBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	b.AddEdge(2, 3)
	g := b.Build()
	n, err := psgl.Count(g, psgl.Triangle(), psgl.NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("triangles = %d, want 1", n)
	}
}

func TestOnInstanceStreaming(t *testing.T) {
	g := psgl.GenerateErdosRenyi(100, 600, 8)
	var mu sync.Mutex
	streamed := 0
	opts := psgl.NewOptions()
	opts.OnInstance = func(m []psgl.VertexID) {
		mu.Lock()
		streamed++
		mu.Unlock()
	}
	res, err := psgl.List(g, psgl.Triangle(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if int64(streamed) != res.Count {
		t.Fatalf("streamed %d, counted %d", streamed, res.Count)
	}
}

func TestGenerateFromSpec(t *testing.T) {
	good := map[string]int{
		"er:100:300":          100,
		"chunglu:200:800:1.8": 200,
		"ba:150:3":            150,
		"rmat:8:500":          256,
	}
	for spec, wantV := range good {
		g, err := psgl.GenerateFromSpec(spec, 1)
		if err != nil {
			t.Errorf("%q: %v", spec, err)
			continue
		}
		if g.NumVertices() != wantV {
			t.Errorf("%q: V=%d, want %d", spec, g.NumVertices(), wantV)
		}
	}
	for _, spec := range []string{"", "er", "er:10", "er:a:b", "chunglu:10:20", "chunglu:10:20:x", "nope:1:2", "rmat:8:500:9"} {
		if _, err := psgl.GenerateFromSpec(spec, 1); err == nil {
			t.Errorf("%q accepted", spec)
		}
	}
}

func TestOutOfCorePublic(t *testing.T) {
	g := psgl.GenerateChungLu(2000, 10000, 1.9, 6)
	exact := psgl.CountTriangles(g)
	ooc, err := psgl.CountTrianglesOutOfCore(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ooc != exact {
		t.Fatalf("out-of-core=%d exact=%d", ooc, exact)
	}
}

func TestMotifCensusPublic(t *testing.T) {
	g := psgl.GenerateErdosRenyi(200, 1200, 9)
	census, err := psgl.MotifCensus(g, []*psgl.Pattern{psgl.Triangle(), psgl.Square(), psgl.Path(3)}, psgl.NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(census) != 3 {
		t.Fatalf("census has %d entries", len(census))
	}
	if census["triangle"] != psgl.CountCentralized(g, psgl.Triangle()) {
		t.Fatal("census triangle count wrong")
	}
	if census["path3"] == 0 {
		t.Fatal("no wedges in a dense graph")
	}
}

func TestCensusPublic(t *testing.T) {
	g := psgl.GenerateChungLu(400, 1200, 2.0, 13)
	res, err := psgl.Census(g, 3, psgl.CensusOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Subgraphs == 0 || len(res.Classes) == 0 {
		t.Fatalf("empty census on a dense graph: %+v", res)
	}
	if err := psgl.VerifyCensus(g, res); err != nil {
		t.Fatal(err)
	}
	// The triangle class of the k=3 census must agree with the listing
	// engine's triangle count — the two engines meet on this number.
	triangles, err := psgl.Count(g, psgl.Triangle(), psgl.NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	var censusTriangles int64
	for _, c := range res.Classes {
		if c.Motif == "edges(0-1,0-2,1-2)" {
			censusTriangles = c.Count
		}
	}
	if censusTriangles != triangles {
		t.Fatalf("census counted %d triangles, listing engine %d", censusTriangles, triangles)
	}

	// A shared canon cache turns a repeat census all-hits.
	cache := psgl.NewCensusCanonCache(3)
	if _, err := psgl.Census(g, 3, psgl.CensusOptions{Cache: cache}); err != nil {
		t.Fatal(err)
	}
	warm, err := psgl.Census(g, 3, psgl.CensusOptions{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if warm.CacheMisses != 0 {
		t.Fatalf("warm census still missed the canon cache %d times", warm.CacheMisses)
	}

	// Cancellation and the vertex cap surface as public errors.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := psgl.CensusContext(ctx, g, 3, psgl.CensusOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled census returned %v", err)
	}
}

func TestParseCensusPublic(t *testing.T) {
	k, ok, err := psgl.ParseCensus("census(4)")
	if err != nil || !ok || k != 4 {
		t.Fatalf("ParseCensus(census(4)) = %d, %v, %v", k, ok, err)
	}
	if _, ok, _ := psgl.ParseCensus("triangle"); ok {
		t.Fatal("plain pattern misread as a census query")
	}
	if _, ok, err := psgl.ParseCensus("census(99)"); !ok || err == nil {
		t.Fatal("out-of-range census k accepted")
	}
	if psgl.MinCensusK != 2 || psgl.MaxCensusK != 5 {
		t.Fatalf("census k range [%d,%d]", psgl.MinCensusK, psgl.MaxCensusK)
	}
}

func TestLabeledMatchingPublic(t *testing.T) {
	g := psgl.GenerateErdosRenyi(120, 700, 10)
	labels := make([]int32, g.NumVertices())
	for i := range labels {
		labels[i] = int32(i % 2)
	}
	lp, err := psgl.Triangle().WithLabels([]int{0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	opts := psgl.NewOptions()
	opts.DataLabels = labels
	got, err := psgl.Count(g, lp, opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := psgl.CountCentralizedLabeled(g, lp, labels); got != want {
		t.Fatalf("labeled: psgl=%d oracle=%d", got, want)
	}
}

func TestLoadEdgeListRejectsGarbage(t *testing.T) {
	if _, err := psgl.LoadEdgeList(strings.NewReader("not an edge list")); err == nil {
		t.Fatal("garbage accepted")
	}
}

// stopAfterSave is a downstream checkpoint store: it keeps the latest
// snapshot in memory and stops the run right after its nth save.
type stopAfterSave struct {
	psgl.CheckpointStore
	n, saves int
	stop     context.CancelFunc
}

func (s *stopAfterSave) Save(step int, data []byte) error {
	err := s.CheckpointStore.Save(step, data)
	if s.saves++; s.saves == s.n {
		s.stop()
	}
	return err
}

func TestFaultTolerancePublicAPI(t *testing.T) {
	// The whole fault-tolerance surface through the public package:
	// checkpoint a run, stop it, resume it in a new run — same count as
	// clean. Houses, not triangles: a triangle completes where it is seeded,
	// and a house run has three supersteps, so it stops after its second
	// save with a superstep still to go.
	g := psgl.GenerateErdosRenyi(60, 240, 5)
	clean, err := psgl.List(g, psgl.House(), psgl.NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	store := &stopAfterSave{CheckpointStore: psgl.NewMemCheckpointStore(), n: 2, stop: cancel}
	opts := psgl.NewOptions()
	opts.CheckpointEvery = 1
	opts.CheckpointStore = store
	if _, err := psgl.ListContext(ctx, g, psgl.House(), opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("stopped run: err = %v, want context.Canceled", err)
	}
	resumed := psgl.NewOptions()
	resumed.ResumeFrom = store
	res, err := psgl.List(g, psgl.House(), resumed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != clean.Count || res.Stats.LoadMakespan != clean.Stats.LoadMakespan {
		t.Fatalf("resumed run counted %d (load makespan %v), clean run %d (%v)",
			res.Count, res.Stats.LoadMakespan, clean.Count, clean.Stats.LoadMakespan)
	}
	// Another pattern is another run: its snapshot is refused.
	if _, err := psgl.List(g, psgl.Square(), resumed); !errors.Is(err, psgl.ErrCorruptCheckpoint) {
		t.Fatalf("resuming a house run's checkpoint as squares: err = %v, want ErrCorruptCheckpoint", err)
	}
}

func TestDynamicGraphPublicAPI(t *testing.T) {
	// The dynamic-graph surface through the public package: overlay batches,
	// snapshots, and ListDelta's maintenance identity
	// count(old) + gained - lost == count(new).
	g := psgl.GenerateChungLu(300, 1200, 1.8, 9)
	before, err := psgl.Count(g, psgl.Diamond(), psgl.NewOptions())
	if err != nil {
		t.Fatal(err)
	}

	ov := psgl.NewGraphOverlay(g)
	res, err := ov.ApplyBatch(psgl.MutationBatch{
		Add:    [][2]psgl.VertexID{{0, 1}, {0, 2}, {1, 2}, {2, 3}},
		Remove: [][2]psgl.VertexID{{4, 5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != 1 {
		t.Fatalf("epoch %d, want 1", res.Epoch)
	}
	mutated := ov.Snapshot()

	d, err := psgl.ListDelta(context.Background(), g, mutated, res.Added, res.Removed,
		psgl.Diamond(), psgl.DeltaOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	after, err := psgl.Count(mutated, psgl.Diamond(), psgl.NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	if before+d.Gained-d.Lost != after {
		t.Fatalf("maintenance identity broken: %d + %d - %d != %d", before, d.Gained, d.Lost, after)
	}
}
