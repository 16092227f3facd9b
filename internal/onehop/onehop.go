// Package onehop is the PowerGraph comparison system of Tables 3 and 4: a
// graph-parallel subgraph lister with a manually fixed traversal order and a
// one-hop neighborhood index, re-implemented on this repository's BSP
// substrate.
//
// The engine walks the pattern vertices in the given order. Extending the
// match by the next pattern vertex draws candidates from the adjacency of
// its anchor (the most recent already-matched pattern neighbor) with only
// degree / injectivity / partial-order filters — edges to other matched
// vertices cannot be checked there, because the anchor's worker only holds
// the anchor's one-hop neighborhood. Each candidate match is therefore
// shipped to the candidate's owner first, where its incident pattern edges
// are verified against the local adjacency (the one-hop index); invalid
// intermediates die only after they have been materialized and communicated.
//
// That is precisely the failure mode Section 7.6 attributes to PowerGraph:
// competitive on triangles and squares (cheap verification, lean engine — no
// distribution strategy, no bloom index, single-vertex extension), but
// blowing up on denser patterns or badly chosen orders, where PSgL's global
// light-weight edge index prunes before communication.
package onehop

import (
	"encoding/binary"
	"fmt"
	"time"

	"psgl/internal/bsp"
	"psgl/internal/graph"
	"psgl/internal/pattern"
)

// ErrOutOfMemory mirrors the OOM rows of Table 4.
var ErrOutOfMemory = fmt.Errorf("onehop: intermediate result budget exceeded (OOM)")

// Options configures a run.
type Options struct {
	// Workers is the BSP worker count. 0 means 4.
	Workers int
	// Order is the fixed traversal order over pattern vertices (e.g.
	// 1->2->3->4 in the paper's notation is []int{0,1,2,3}). Every vertex
	// after the first must have an earlier pattern neighbor. Nil means a
	// BFS order from vertex 0.
	Order []int
	// MaxIntermediate aborts with ErrOutOfMemory once the engine has
	// generated this many intermediate matches. 0 means unlimited.
	MaxIntermediate int64
	// Seed drives the vertex partition.
	Seed int64
}

// Stats reports the run metrics shared with the PSgL engine.
type Stats struct {
	Supersteps        int
	Generated         int64
	Results           int64
	PrunedByVerify    int64
	PrunedLocally     int64
	WorkerTime        []time.Duration
	SimulatedMakespan time.Duration
	WallTime          time.Duration
}

// Result is the outcome of a run.
type Result struct {
	Count int64
	Stats Stats
}

// message is the in-flight partial match.
type message struct {
	Match []graph.VertexID
	// Pos indexes the traversal order. Kind 0 = verify the vertex at Pos
	// (routed to its mapped data vertex), kind 1 = extend to Pos (routed to
	// the anchor's data vertex).
	Pos  int8
	Kind int8
}

const (
	kindVerify = 0
	kindExtend = 1
)

// AppendWire implements bsp.WireMessage, so matches can cross a TCP
// transport: [len(Match) | Pos | Kind | Match as 4-byte little-endian words].
func (m *message) AppendWire(dst []byte) []byte {
	dst = append(dst, byte(len(m.Match)), byte(m.Pos), byte(m.Kind))
	for _, v := range m.Match {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
	}
	return dst
}

// DecodeWire implements bsp.WireMessage. Match gets fresh storage: decoded
// messages must not alias the frame buffer or each other.
func (m *message) DecodeWire(src []byte) ([]byte, error) {
	if len(src) < 3 || len(src) < 3+4*int(src[0]) {
		return nil, fmt.Errorf("onehop: truncated wire message (%d bytes)", len(src))
	}
	n := int(src[0])
	m.Pos, m.Kind = int8(src[1]), int8(src[2])
	m.Match = make([]graph.VertexID, n)
	for i := range m.Match {
		m.Match[i] = graph.VertexID(binary.LittleEndian.Uint32(src[3+4*i:]))
	}
	return src[3+4*n:], nil
}

// Run lists instances of p in g along the fixed traversal order.
func Run(g *graph.Graph, p *pattern.Pattern, opts Options) (*Result, error) {
	return run(g, p, opts, nil)
}

// run is Run over a chosen transport (nil = in-process); the tests use it to
// pin that the wire codec changes nothing.
func run(g *graph.Graph, p *pattern.Pattern, opts Options, exchange bsp.ExchangeFactory) (*Result, error) {
	if g == nil || p == nil {
		return nil, fmt.Errorf("onehop: nil graph or pattern")
	}
	p = p.BreakAutomorphisms()
	workers := opts.Workers
	if workers <= 0 {
		workers = 4
	}
	order := opts.Order
	if order == nil {
		order = DefaultOrder(p)
	}
	if err := ValidateOrder(p, order); err != nil {
		return nil, err
	}
	anchors := make([]int, len(order))
	posOf := make([]int, p.N())
	for i, v := range order {
		posOf[v] = i
	}
	for i, v := range order {
		anchors[i] = -1
		best := -1
		for _, u := range p.Neighbors(v) {
			if posOf[u] < i && posOf[u] > best {
				best = posOf[u]
			}
		}
		if best >= 0 {
			anchors[i] = order[best]
		}
	}

	e := &ohEngine{
		g:       g,
		ord:     graph.NewOrdered(g),
		p:       p,
		order:   order,
		anchors: anchors,
		part:    graph.NewPartition(workers, opts.Seed),
		budget:  opts.MaxIntermediate,
	}
	cfg := bsp.Config{
		Workers:  workers,
		Owner:    func(v graph.VertexID) int { return e.part.Owner(v) },
		Exchange: exchange,
	}
	start := time.Now()
	rs, err := bsp.Run[message](cfg, e)
	wall := time.Since(start)
	if err != nil {
		if e.oom.Load() {
			return e.result(rs, wall), ErrOutOfMemory
		}
		return nil, err
	}
	return e.result(rs, wall), nil
}

// DefaultOrder returns a BFS traversal order from pattern vertex 0.
func DefaultOrder(p *pattern.Pattern) []int {
	order := []int{0}
	seen := make([]bool, p.N())
	seen[0] = true
	for i := 0; i < len(order); i++ {
		for _, u := range p.Neighbors(order[i]) {
			if !seen[u] {
				seen[u] = true
				order = append(order, u)
			}
		}
	}
	return order
}

// ValidateOrder checks that order is a permutation of the pattern vertices
// in which every vertex after the first has an earlier pattern neighbor.
func ValidateOrder(p *pattern.Pattern, order []int) error {
	if len(order) != p.N() {
		return fmt.Errorf("onehop: order has %d entries for a %d-vertex pattern", len(order), p.N())
	}
	seen := make([]bool, p.N())
	for i, v := range order {
		if v < 0 || v >= p.N() || seen[v] {
			return fmt.Errorf("onehop: order %v is not a permutation", order)
		}
		seen[v] = true
		if i == 0 {
			continue
		}
		hasAnchor := false
		for _, u := range p.Neighbors(v) {
			for j := 0; j < i; j++ {
				if order[j] == u {
					hasAnchor = true
				}
			}
		}
		if !hasAnchor {
			return fmt.Errorf("onehop: order %v: vertex %d has no earlier neighbor", order, v)
		}
	}
	return nil
}
