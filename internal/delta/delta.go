// Package delta implements DDSL-style incremental subgraph maintenance
// (arXiv:1810.05972): given a graph before and after a batch of edge
// mutations, it computes exactly the embeddings gained and lost — without
// re-enumerating the unchanged bulk of the graph — by anchoring the core
// PSgL expansion on the changed edges.
//
// The algebra is the standard one. Normalize the batch down to its effective
// changes (an edge added that was already present, or removed while absent,
// is a noop). An embedding of the pattern exists in G′ but not G iff its
// image uses at least one effectively added edge; it exists in G but not G′
// iff its image uses at least one effectively removed edge. So:
//
//	gained = embeddings of G′ anchored on added edges
//	lost   = embeddings of G  anchored on removed edges
//	count(G) + gained − lost = count(G′)
//
// Anchoring reuses internal/core's seeded enumeration: for changed edge
// {u, v}, every pattern edge is pinned onto (u, v) in both orientations (a
// seed per orientation). Injectivity guarantees an embedding maps at most
// one pattern edge onto any one data edge, so within one anchored run each
// matching embedding surfaces exactly once. Across the batch, an embedding
// using several changed edges is counted at its minimal changed edge only:
// run i carries an EmitFilter rejecting embeddings that use a changed edge
// with index < i.
//
// Runs execute under the identity vertex order (stable across mutations, so
// the canonical representative of an automorphism class never shifts between
// epochs — maintained embedding sets stay byte-comparable with fresh full
// runs), in one memory domain (core.Prepare), which builds no edge index and
// checks every closing edge where the run meets it: the graph-scoped state
// is built once per side and shared by that side's anchors, and a filter
// over every edge would dwarf a small batch's anchored work, where an
// identity order (no relabel), the hub bitmap and the owner array do not.
//
// Every anchored run is strict, in-process and takes no checkpoints: the
// in-process exchange never fails a frame and the runs set no step timeout,
// so nothing fails that a checkpoint could recover, no superstep is
// replayed, and each gained or lost embedding reaches Collect and
// OnGained/OnLost exactly once.
package delta

import (
	"context"
	"fmt"
	"time"

	"psgl/internal/core"
	"psgl/internal/graph"
	"psgl/internal/pattern"
)

// Options configures a delta enumeration. The zero value is valid: 4
// workers, strict in-process exchange, counting only.
type Options struct {
	// Workers is the number of BSP workers per anchored run. 0 means 4.
	Workers int
	// Seed drives the engine's partitioning of the graph across workers.
	Seed int64
	// Collect retains the gained/lost mappings in the result.
	Collect bool
	// OnGained/OnLost stream each gained/lost embedding's mapping as it is
	// found (same contract as core.Options.OnInstance: concurrent calls,
	// slice valid only during the call), each exactly once.
	OnGained func(mapping []graph.VertexID)
	OnLost   func(mapping []graph.VertexID)
	// PrePlanned declares that the pattern already carries its
	// symmetry-breaking orders (e.g. from a serve-layer plan cache), skipping
	// the per-call BreakAutomorphisms.
	PrePlanned bool
}

// Result is the outcome of one delta enumeration.
type Result struct {
	// Gained/Lost count the embeddings that exist only after/only before the
	// batch.
	Gained int64
	Lost   int64
	// GainedEmbeddings/LostEmbeddings hold the mappings when Options.Collect
	// is set, each exactly once. Order across anchored runs is deterministic
	// (changed edges in batch order); order within a run is not — compare as
	// multisets.
	GainedEmbeddings [][]graph.VertexID
	LostEmbeddings   [][]graph.VertexID
	// AddedEdges/RemovedEdges are the effective changes the enumeration
	// anchored on, normalized u < v, in batch order.
	AddedEdges   [][2]graph.VertexID
	RemovedEdges [][2]graph.VertexID
	// Runs is the number of anchored core runs executed (2 per changed edge
	// side is the worst case; exactly one run per effective changed edge).
	Runs int
	// GpsiGenerated and PrunedByFilter aggregate the runs' engine counters;
	// the filter counter is the cross-anchor dedup at work.
	GpsiGenerated  int64
	PrunedByFilter int64
	// WallTime is the elapsed time of the whole delta pass.
	WallTime time.Duration
}

// Enumerate computes the embeddings gained and lost between old and neu.
//
// The caller contract: neu's edge set must equal old's edge set plus adds
// minus removes (noop entries are fine and ignored; graph.Overlay's
// BatchResult provides exactly such sets). Edges outside the two lists that
// differ between the graphs are not looked at and silently corrupt the
// delta. Both graphs must share the vertex count.
func Enumerate(ctx context.Context, old, neu *graph.Graph, adds, removes [][2]graph.VertexID, p *pattern.Pattern, opts Options) (*Result, error) {
	if old == nil || neu == nil || p == nil {
		return nil, fmt.Errorf("delta: nil graph or pattern")
	}
	if old.NumVertices() != neu.NumVertices() {
		return nil, fmt.Errorf("delta: vertex counts differ (%d vs %d); overlays never grow |V|",
			old.NumVertices(), neu.NumVertices())
	}
	start := time.Now()
	if !opts.PrePlanned {
		p = p.BreakAutomorphisms()
	}
	res := &Result{}
	if p.NumEdges() == 0 {
		// Vertex-only patterns are invariant under edge mutations.
		res.WallTime = time.Since(start)
		return res, nil
	}
	var err error
	if res.AddedEdges, err = effectiveChanges("add", neu, old, adds); err != nil {
		return nil, err
	}
	if res.RemovedEdges, err = effectiveChanges("remove", old, neu, removes); err != nil {
		return nil, err
	}
	if err := enumerateSide(ctx, neu, res.AddedEdges, p, opts, opts.OnGained,
		&res.Gained, &res.GainedEmbeddings, res); err != nil {
		return nil, fmt.Errorf("delta: gained side: %w", err)
	}
	if err := enumerateSide(ctx, old, res.RemovedEdges, p, opts, opts.OnLost,
		&res.Lost, &res.LostEmbeddings, res); err != nil {
		return nil, fmt.Errorf("delta: lost side: %w", err)
	}
	res.WallTime = time.Since(start)
	return res, nil
}

// effectiveChanges validates, normalizes (u < v), deduplicates, and filters
// a change list down to the entries that actually distinguish the two
// graphs: present in `in`, absent in `notIn`.
func effectiveChanges(kind string, in, notIn *graph.Graph, edges [][2]graph.VertexID) ([][2]graph.VertexID, error) {
	n := in.NumVertices()
	seen := make(map[uint64]struct{}, len(edges))
	var out [][2]graph.VertexID
	for _, e := range edges {
		u, v := e[0], e[1]
		if int(u) < 0 || int(u) >= n || int(v) < 0 || int(v) >= n {
			return nil, fmt.Errorf("delta: %s edge (%d,%d) out of range [0,%d)", kind, u, v, n)
		}
		if u == v {
			return nil, fmt.Errorf("delta: %s edge (%d,%d) is a self-loop", kind, u, v)
		}
		if u > v {
			u, v = v, u
		}
		k := edgeKey(u, v)
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		if in.HasEdge(u, v) && !notIn.HasEdge(u, v) {
			out = append(out, [2]graph.VertexID{u, v})
		}
	}
	return out, nil
}

func edgeKey(u, v graph.VertexID) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

// anchorSeeds pins every pattern edge, in both orientations, onto the data
// edge (u, v): the seeds of one anchored run. Exactly one (pattern edge,
// orientation) pair matches any embedding that uses {u, v}, so the run finds
// each such embedding exactly once.
func anchorSeeds(pEdges [][2]int, u, v graph.VertexID) []core.Seed {
	seeds := make([]core.Seed, 0, 2*len(pEdges))
	for _, pe := range pEdges {
		seeds = append(seeds,
			core.Seed{PatternVertices: []int{pe[0], pe[1]}, DataVertices: []graph.VertexID{u, v}},
			core.Seed{PatternVertices: []int{pe[0], pe[1]}, DataVertices: []graph.VertexID{v, u}},
		)
	}
	return seeds
}

// enumerateSide runs one anchored enumeration per changed edge over g,
// accumulating counts, optional embeddings, and run stats into res.
func enumerateSide(ctx context.Context, g *graph.Graph, changed [][2]graph.VertexID,
	p *pattern.Pattern, opts Options, stream func([]graph.VertexID),
	count *int64, collected *[][]graph.VertexID, res *Result) error {
	if len(changed) == 0 {
		return nil
	}
	keys := make(map[uint64]int, len(changed))
	for i, ce := range changed {
		keys[edgeKey(ce[0], ce[1])] = i
	}
	pEdges := p.Edges()
	copts := core.Options{
		Workers:        opts.Workers,
		Seed:           opts.Seed,
		Collect:        opts.Collect,
		OnInstance:     stream,
		PlannedPattern: true,
		IdentityOrder:  true,
		InitialVertex:  pEdges[0][0], // ignored by seeding; skips per-run plan selection
	}
	// One graph-scoped build for the side; every anchor runs on it.
	prepared := core.Prepare(g, copts)
	for i, ce := range changed {
		// Count each embedding at its minimal changed edge: run i drops any
		// embedding whose image also uses an earlier anchor.
		anchor := i
		copts.EmitFilter = func(m []graph.VertexID) bool {
			for _, pe := range pEdges {
				if j, ok := keys[edgeKey(m[pe[0]], m[pe[1]])]; ok && j < anchor {
					return false
				}
			}
			return true
		}
		copts.Seeds = anchorSeeds(pEdges, ce[0], ce[1])
		r, err := prepared.RunContext(ctx, p, copts)
		if err != nil {
			return fmt.Errorf("anchor (%d,%d): %w", ce[0], ce[1], err)
		}
		*count += r.Count
		*collected = append(*collected, r.Instances...)
		res.Runs++
		res.GpsiGenerated += r.Stats.GpsiGenerated
		res.PrunedByFilter += r.Stats.PrunedByFilter
	}
	return nil
}
