package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// sameEdgeSet reports whether two graphs list exactly the same undirected
// edges.
func sameEdgeSet(a, b *Graph) bool {
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		return false
	}
	same := true
	a.Edges(func(u, v VertexID) bool {
		if !b.HasEdge(u, v) {
			same = false
			return false
		}
		return true
	})
	return same
}

func TestOverlayApplyBatchAndSnapshot(t *testing.T) {
	base := FromEdges(5, [][2]VertexID{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	ov := NewOverlay(base)
	if got := ov.Snapshot(); got != base {
		t.Fatalf("fresh overlay snapshot should be the base itself")
	}

	res, err := ov.ApplyBatch(Batch{
		Add:    [][2]VertexID{{0, 2}, {4, 0}},
		Remove: [][2]VertexID{{2, 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != 1 || ov.Epoch() != 1 {
		t.Fatalf("epoch = %d/%d, want 1", res.Epoch, ov.Epoch())
	}
	if len(res.Added) != 2 || len(res.Removed) != 1 || res.Noops != 0 {
		t.Fatalf("effective changes = %v/%v/%d", res.Added, res.Removed, res.Noops)
	}
	// Effective edges come back normalized u < v.
	if res.Added[1] != [2]VertexID{0, 4} || res.Removed[0] != [2]VertexID{1, 2} {
		t.Fatalf("normalization: added %v removed %v", res.Added, res.Removed)
	}
	if !ov.HasEdge(2, 0) || ov.HasEdge(1, 2) || !ov.HasEdge(0, 1) {
		t.Fatal("HasEdge does not reflect the patch")
	}
	want := FromEdges(5, [][2]VertexID{{0, 1}, {2, 3}, {3, 4}, {0, 2}, {0, 4}})
	if !sameEdgeSet(ov.Snapshot(), want) {
		t.Fatal("snapshot edge set mismatch")
	}
	if ov.NumEdges() != want.NumEdges() {
		t.Fatalf("NumEdges = %d, want %d", ov.NumEdges(), want.NumEdges())
	}
	if s1, s2 := ov.Snapshot(), ov.Snapshot(); s1 != s2 {
		t.Fatal("snapshot not cached between mutations")
	}
}

// TestOverlayFingerprintInvariant pins the contract the serving layer leans
// on: after every batch, the incrementally maintained fingerprint equals a
// from-scratch EdgeFingerprint of the materialized snapshot.
func TestOverlayFingerprintInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 40
	var edges [][2]VertexID
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Intn(4) == 0 {
				edges = append(edges, [2]VertexID{VertexID(u), VertexID(v)})
			}
		}
	}
	base := FromEdges(n, edges)
	ov := NewOverlay(base)
	if ov.Fingerprint() != base.EdgeFingerprint() {
		t.Fatal("fresh overlay fingerprint != base EdgeFingerprint")
	}
	for step := 0; step < 30; step++ {
		var b Batch
		for i := 0; i < 5; i++ {
			u := VertexID(rng.Intn(n))
			v := VertexID(rng.Intn(n))
			if u == v {
				continue
			}
			if rng.Intn(2) == 0 {
				b.Add = append(b.Add, [2]VertexID{u, v})
			} else {
				b.Remove = append(b.Remove, [2]VertexID{u, v})
			}
		}
		if _, err := ov.ApplyBatch(b); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		snap := ov.Snapshot()
		if ov.Fingerprint() != snap.EdgeFingerprint() {
			t.Fatalf("step %d: overlay fp %#x != snapshot fp %#x",
				step, ov.Fingerprint(), snap.EdgeFingerprint())
		}
		if ov.NumEdges() != snap.NumEdges() {
			t.Fatalf("step %d: overlay |E|=%d snapshot |E|=%d",
				step, ov.NumEdges(), snap.NumEdges())
		}
		if step == 15 {
			fp, ep := ov.Fingerprint(), ov.Epoch()
			ov.Compact()
			if ov.PatchSize() != 0 || ov.Fingerprint() != fp || ov.Epoch() != ep {
				t.Fatal("compaction must empty patches without touching fp/epoch")
			}
			if ov.Compactions() != 1 {
				t.Fatalf("compactions = %d, want 1", ov.Compactions())
			}
		}
	}
}

func TestOverlayNoopsAndCancellation(t *testing.T) {
	base := FromEdges(4, [][2]VertexID{{0, 1}, {1, 2}})
	ov := NewOverlay(base)
	fp0 := ov.Fingerprint()

	// Adding a present edge and removing an absent one are noops.
	res, err := ov.ApplyBatch(Batch{Add: [][2]VertexID{{1, 0}}, Remove: [][2]VertexID{{0, 3}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Added) != 0 || len(res.Removed) != 0 || res.Noops != 2 {
		t.Fatalf("want 2 noops, got %+v", res)
	}
	if res.Epoch != 1 {
		t.Fatalf("all-noop batch must still advance the epoch, got %d", res.Epoch)
	}
	if ov.Fingerprint() != fp0 {
		t.Fatal("noop batch changed the fingerprint")
	}

	// Remove+add of the same present edge in one batch: removal applies
	// first, the add restores it — both effective, edge set unchanged.
	res, err = ov.ApplyBatch(Batch{Add: [][2]VertexID{{0, 1}}, Remove: [][2]VertexID{{0, 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Added) != 1 || len(res.Removed) != 1 {
		t.Fatalf("want remove-then-add round trip, got %+v", res)
	}
	if !ov.HasEdge(0, 1) || ov.Fingerprint() != fp0 {
		t.Fatal("cancelling batch must leave edge set and fingerprint intact")
	}
	if ov.PatchSize() != 0 {
		t.Fatalf("cancelling batch left %d patch entries", ov.PatchSize())
	}

	added, removed, noops := ov.MutationStats()
	if added != 1 || removed != 1 || noops != 2 {
		t.Fatalf("lifetime stats = %d/%d/%d, want 1/1/2", added, removed, noops)
	}
}

func TestOverlayValidation(t *testing.T) {
	ov := NewOverlay(FromEdges(3, [][2]VertexID{{0, 1}}))
	cases := []Batch{
		{Add: [][2]VertexID{{0, 3}}},    // out of range
		{Add: [][2]VertexID{{-1, 1}}},   // negative
		{Add: [][2]VertexID{{2, 2}}},    // self-loop
		{Remove: [][2]VertexID{{5, 0}}}, // out of range remove
	}
	for i, b := range cases {
		if _, err := ov.ApplyBatch(b); err == nil {
			t.Fatalf("case %d: want validation error", i)
		}
	}
	if ov.Epoch() != 0 || ov.PatchSize() != 0 {
		t.Fatal("rejected batches must leave the overlay untouched")
	}

	// A mixed batch with one bad entry is rejected atomically.
	if _, err := ov.ApplyBatch(Batch{Add: [][2]VertexID{{0, 2}, {9, 9}}}); err == nil {
		t.Fatal("want atomic rejection")
	}
	if ov.HasEdge(0, 2) {
		t.Fatal("partial application after rejected batch")
	}
}

func TestEdgeFingerprintOrderIndependent(t *testing.T) {
	a := FromEdges(6, [][2]VertexID{{0, 1}, {2, 3}, {4, 5}, {1, 4}})
	b := FromEdges(6, [][2]VertexID{{4, 1}, {5, 4}, {1, 0}, {3, 2}})
	if a.EdgeFingerprint() != b.EdgeFingerprint() {
		t.Fatal("same edge set, different fingerprint")
	}
	c := FromEdges(6, [][2]VertexID{{0, 1}, {2, 3}, {4, 5}, {1, 5}})
	if a.EdgeFingerprint() == c.EdgeFingerprint() {
		t.Fatal("different edge set, same fingerprint")
	}
	d := FromEdges(7, [][2]VertexID{{0, 1}, {2, 3}, {4, 5}, {1, 4}})
	if a.EdgeFingerprint() == d.EdgeFingerprint() {
		t.Fatal("different |V|, same fingerprint")
	}
}

func TestIdentityOrdered(t *testing.T) {
	g := FromEdges(5, [][2]VertexID{{0, 4}, {4, 1}, {1, 3}, {3, 0}, {2, 4}})
	o := NewIdentityOrdered(g)
	for v := 0; v < 5; v++ {
		if o.Rank(VertexID(v)) != int32(v) {
			t.Fatalf("rank(%d) = %d", v, o.Rank(VertexID(v)))
		}
		var nb, ns int32
		for _, u := range g.Neighbors(VertexID(v)) {
			if u < VertexID(v) {
				nb++
			} else {
				ns++
			}
		}
		if o.NB(VertexID(v)) != nb || o.NS(VertexID(v)) != ns {
			t.Fatalf("nb/ns(%d) = %d/%d, want %d/%d",
				v, o.NB(VertexID(v)), o.NS(VertexID(v)), nb, ns)
		}
	}
	if !o.Less(1, 2) || o.Less(3, 3) || o.Less(4, 0) {
		t.Fatal("identity Less must compare vertex ids")
	}
}

// TestOverlaySnapshotMergeMatchesBuilder walks random update sequences —
// adds, removes, noops, an edge added and removed in one batch, a Compact
// mid-walk, Snapshot called twice — and checks after every batch that the
// merged snapshot is the byte-identical CSR a Builder produces from the
// model's edge set (equal Fingerprint, which hashes offsets and adjacency),
// that the overlay's incremental digest still describes it, and that
// Graph.Patched over the overlay's patch as edge lists, in any order and
// orientation, builds the same CSR without touching the base.
func TestOverlaySnapshotMergeMatchesBuilder(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(60)
		model := map[[2]VertexID]bool{}
		for i := 0; i < 3*n; i++ {
			u, v := VertexID(rng.Intn(n)), VertexID(rng.Intn(n))
			if u != v {
				model[[2]VertexID{min(u, v), max(u, v)}] = true
			}
		}
		build := func() *Graph {
			b := NewBuilder(n)
			for e := range model {
				b.AddEdge(e[1], e[0])
			}
			return b.Build()
		}
		ov := NewOverlay(build())
		present := func() [2]VertexID {
			for e := range model {
				return e
			}
			return [2]VertexID{0, 1}
		}
		for step := 0; step < 40; step++ {
			var b Batch
			switch step % 8 {
			case 3: // all noops: re-add a present edge, remove an absent one
				b.Add = append(b.Add, present())
				u := VertexID(rng.Intn(n - 1))
				if !model[[2]VertexID{u, u + 1}] {
					b.Remove = append(b.Remove, [2]VertexID{u + 1, u})
				}
			case 5: // one absent edge added and removed in the same batch
				u, v := VertexID(rng.Intn(n)), VertexID(rng.Intn(n))
				if u != v && !model[[2]VertexID{min(u, v), max(u, v)}] {
					b.Add = append(b.Add, [2]VertexID{u, v})
					b.Remove = append(b.Remove, [2]VertexID{v, u})
				} else {
					b.Add = append(b.Add, present())
				}
			default:
				for i := 0; i < 1+rng.Intn(6); i++ {
					u, v := VertexID(rng.Intn(n)), VertexID(rng.Intn(n))
					if u == v {
						continue
					}
					if rng.Intn(2) == 0 {
						b.Add = append(b.Add, [2]VertexID{u, v})
					} else {
						b.Remove = append(b.Remove, [2]VertexID{u, v})
					}
				}
				if len(b.Add)+len(b.Remove) == 0 {
					b.Add = append(b.Add, present())
				}
			}
			// The model applies removals first, then additions, like the overlay.
			for _, e := range b.Remove {
				delete(model, [2]VertexID{min(e[0], e[1]), max(e[0], e[1])})
			}
			for _, e := range b.Add {
				model[[2]VertexID{min(e[0], e[1]), max(e[0], e[1])}] = true
			}
			if _, err := ov.ApplyBatch(b); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if step == 20 {
				ov.Compact()
			}
			snap, want := ov.Snapshot(), build()
			if snap != ov.Snapshot() {
				t.Fatalf("seed %d step %d: second Snapshot rebuilt", seed, step)
			}
			if snap.Fingerprint() != want.Fingerprint() {
				t.Fatalf("seed %d step %d: merged snapshot is not the Builder's CSR (|E| %d vs %d)",
					seed, step, snap.NumEdges(), want.NumEdges())
			}
			if snap.EdgeFingerprint() != ov.Fingerprint() {
				t.Fatalf("seed %d step %d: snapshot edge digest != overlay digest", seed, step)
			}
			// The exported merge over edge lists, which is what Snapshot
			// calls: the patch reversed, shuffled and flipped end for end
			// gives the Builder's CSR too, and leaves the base alone.
			added, removed := ov.Patch()
			for _, edges := range [][][2]VertexID{added, removed} {
				slices.Reverse(edges)
				rng.Shuffle(len(edges)/2, func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
				for i := range edges {
					if rng.Intn(2) == 0 {
						edges[i] = [2]VertexID{edges[i][1], edges[i][0]}
					}
				}
			}
			baseFP := ov.Base().Fingerprint()
			if got := ov.Base().Patched(added, removed); got.Fingerprint() != want.Fingerprint() {
				t.Fatalf("seed %d step %d: Patched over the edge lists is not the Builder's CSR", seed, step)
			}
			if ov.Base().Fingerprint() != baseFP {
				t.Fatalf("seed %d step %d: Patched changed its receiver", seed, step)
			}
		}
	}
}
