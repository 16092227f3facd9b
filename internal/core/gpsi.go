// Package core implements PSgL, the paper's contribution: a parallel
// subgraph-listing engine that enumerates pattern instances by pure graph
// traversal over partial subgraph instances (Gpsi) in a BSP model — no join
// operator anywhere.
//
// A run has two phases (Section 4.2). Initialization: every data vertex whose
// degree admits the chosen initial pattern vertex creates a one-pair Gpsi.
// Expansion: each superstep, every in-flight Gpsi is expanded at one GRAY
// pattern vertex (Algorithm 1): edges to already-mapped neighbors are
// verified, candidates for WHITE neighbors are drawn from the local adjacency
// with degree/partial-order/edge-index pruning (Algorithm 5), new Gpsis are
// routed by a pluggable distribution strategy (Algorithm 3), and completed,
// fully verified Gpsis are emitted as results.
package core

import (
	"fmt"

	"psgl/internal/graph"
)

// unmapped marks a pattern vertex with no data-vertex image yet (WHITE).
const unmapped graph.VertexID = -1

// maxPatternVertices is the engine's pattern-size cap; it fixes the size of
// the inline Map array so a Gpsi is a pure value (no per-Gpsi heap
// allocation in Init, branching, or Send).
const maxPatternVertices = 16

// maxPatternEdges is the pattern-edge cap: edge ids index the Pending bits.
const maxPatternEdges = 32

// gpsi is the partial subgraph instance — the unit of work and the message
// type of the BSP computation. It is a pure value type: copying one (for
// branching or sending) allocates nothing. Fields are exported for gob
// (checkpoint snapshots only); every transport uses the compact wire codec
// below.
//
// Colors are implicit: pattern vertex v is BLACK if bit v of Expanded is set,
// GRAY if mapped but not expanded, WHITE if Map[v] == unmapped.
type gpsi struct {
	// Map[v] is the data vertex mapped to pattern vertex v, or unmapped.
	// Only Map[:N] is meaningful; the tail is kept at unmapped.
	Map [maxPatternVertices]graph.VertexID
	// Expanded is the BLACK bitmask (patterns have ≤ 16 vertices here).
	Expanded uint16
	// Pending is a bitmask over pattern edge ids of closing edges that still
	// need exact verification by a worker owning one endpoint. With the edge
	// index an edge is pending only when the bloom passed it because the
	// worker that mapped it owned neither endpoint: an owned endpoint is
	// checked exactly on the spot, and an edge the hub bitset AND proved is
	// exact already. Without the index every closing edge not at the
	// expanding vertex is pending, unchecked, as in the paper's ablation.
	Pending uint32
	// Next is the GRAY pattern vertex this Gpsi will be expanded at; the
	// distribution strategy chose it, and the message was routed to the
	// worker owning Map[Next]. A negative Next marks a seed cursor instead
	// (seedCursor).
	Next int8
	// N is the pattern's vertex count: the used prefix of Map.
	N int8
}

// seedCursor is the Next of a seed cursor: the pipelined policy's on-demand
// initialization phase (engine.seedStep). A cursor is a gpsi so that it is
// queued work like any other — the idle test, the boundary's pending test and
// every snapshot see it — and it costs no field: Map[0] is the rank of the
// next vertex its worker seeds from, the highest one it has yet to consider.
// A worker only ever sends a cursor to itself, which under the pipelined
// policy never crosses a transport, and both wire codecs reject a negative
// Next, so no frame from a peer can carry one.
const seedCursor = -1

func (m *gpsi) isCursor() bool { return m.Next < 0 }

func (m *gpsi) isMapped(v int) bool { return m.Map[v] != unmapped }
func (m *gpsi) isBlack(v int) bool  { return m.Expanded&(1<<uint(v)) != 0 }
func (m *gpsi) isGray(v int) bool   { return m.isMapped(v) && !m.isBlack(v) }
func (m *gpsi) isComplete() bool {
	for _, d := range m.Map[:m.N] {
		if d == unmapped {
			return false
		}
	}
	return true
}

// mappedMask is the bitmask of mapped pattern vertices (BLACK and GRAY).
func (m *gpsi) mappedMask() uint16 {
	mask := uint16(0)
	for v := 0; v < int(m.N); v++ {
		if m.Map[v] != unmapped {
			mask |= 1 << uint(v)
		}
	}
	return mask
}

// uses reports whether data vertex d already appears in the mapping
// (instances are injective).
func (m *gpsi) uses(d graph.VertexID) bool {
	for _, x := range m.Map[:m.N] {
		if x == d {
			return true
		}
	}
	return false
}

// Wire codec: gpsi implements bsp.WireMessage, so the TCP transport frames
// batches with this fixed-layout little-endian encoding. Layout per message: N, Next, Expanded (2 bytes),
// Pending (4 bytes), then N 4-byte map entries — 8+4N bytes total.

const gpsiWireHeader = 8

// AppendWire implements bsp.WireMessage.
func (m *gpsi) AppendWire(dst []byte) []byte {
	dst = append(dst,
		byte(m.N), byte(m.Next),
		byte(m.Expanded), byte(m.Expanded>>8),
		byte(m.Pending), byte(m.Pending>>8), byte(m.Pending>>16), byte(m.Pending>>24),
	)
	for _, d := range m.Map[:m.N] {
		u := uint32(d)
		dst = append(dst, byte(u), byte(u>>8), byte(u>>16), byte(u>>24))
	}
	return dst
}

// DecodeWire implements bsp.WireMessage: it overwrites m from the front of
// src and returns the remainder.
func (m *gpsi) DecodeWire(src []byte) ([]byte, error) {
	if len(src) < gpsiWireHeader {
		return nil, fmt.Errorf("gpsi wire: truncated header (%d bytes)", len(src))
	}
	n := int(src[0])
	if n < 1 || n > maxPatternVertices {
		return nil, fmt.Errorf("gpsi wire: pattern size %d out of range", n)
	}
	need := gpsiWireHeader + 4*n
	if len(src) < need {
		return nil, fmt.Errorf("gpsi wire: truncated body (%d of %d bytes)", len(src), need)
	}
	m.N = int8(n)
	m.Next = int8(src[1])
	m.Expanded = uint16(src[2]) | uint16(src[3])<<8
	m.Pending = uint32(src[4]) | uint32(src[5])<<8 | uint32(src[6])<<16 | uint32(src[7])<<24
	for i := 0; i < n; i++ {
		o := gpsiWireHeader + 4*i
		m.Map[i] = graph.VertexID(uint32(src[o]) | uint32(src[o+1])<<8 | uint32(src[o+2])<<16 | uint32(src[o+3])<<24)
	}
	for i := n; i < maxPatternVertices; i++ {
		m.Map[i] = unmapped
	}
	if err := m.checkNext(); err != nil {
		return nil, fmt.Errorf("gpsi wire: %w", err)
	}
	return src[need:], nil
}

// checkNext rejects a decoded Gpsi that names no mapped expansion vertex:
// expand indexes Map[Next] and walks that vertex's row, so a Next outside
// [0, N) or one whose image is not a data vertex would panic there. It is
// also what keeps a seed cursor (a negative Next) off the wire.
func (m *gpsi) checkNext() error {
	if m.Next < 0 || m.Next >= m.N {
		return fmt.Errorf("expansion vertex %d out of range [0,%d)", m.Next, m.N)
	}
	if m.Map[m.Next] < 0 {
		return fmt.Errorf("expansion vertex %d is unmapped", m.Next)
	}
	return nil
}

// Group codec: gpsi also implements bsp.GroupWireMessage, the grouping-friendly
// layout of compressed frames. The map goes first — Gpsis fanned out from one
// parent share their whole mapped prefix, so front coding against the sorted
// batch collapses it to a few suffix bytes — and the volatile trailer
// (Expanded, Pending, Next) goes last. Layout: N, then N 4-byte little-endian
// map entries, then Expanded (2), Pending (4), Next (1) — 8+4N bytes, the same
// size as the flat codec, and canonical: equal encodings iff equal messages.

// AppendGroupWire implements bsp.GroupWireMessage.
func (m *gpsi) AppendGroupWire(dst []byte) []byte {
	dst = append(dst, byte(m.N))
	for _, d := range m.Map[:m.N] {
		u := uint32(d)
		dst = append(dst, byte(u), byte(u>>8), byte(u>>16), byte(u>>24))
	}
	return append(dst,
		byte(m.Expanded), byte(m.Expanded>>8),
		byte(m.Pending), byte(m.Pending>>8), byte(m.Pending>>16), byte(m.Pending>>24),
		byte(m.Next),
	)
}

// DecodeGroupWire implements bsp.GroupWireMessage: src holds exactly one group
// encoding. When shared > 0 the receiver is pre-seeded with the previously
// decoded message whose encoding equals src[:shared], so map entries fully
// inside the shared prefix — and the unmapped tail — are inherited instead of
// re-parsed; the volatile trailer is always re-read.
func (m *gpsi) DecodeGroupWire(src []byte, shared int) error {
	if len(src) < 1 {
		return fmt.Errorf("gpsi group wire: empty encoding")
	}
	n := int(src[0])
	if n < 1 || n > maxPatternVertices {
		return fmt.Errorf("gpsi group wire: pattern size %d out of range", n)
	}
	if len(src) != 1+4*n+7 {
		return fmt.Errorf("gpsi group wire: %d bytes for pattern size %d (want %d)", len(src), n, 1+4*n+7)
	}
	m.N = int8(n)
	// Map entry i occupies bytes [1+4i, 5+4i): entries with 5+4i <= shared are
	// bit-identical in the seed, so re-parsing starts at (shared-1)/4.
	i0 := 0
	if shared > 0 {
		i0 = (shared - 1) / 4
		if i0 > n {
			i0 = n
		}
	}
	for i := i0; i < n; i++ {
		o := 1 + 4*i
		m.Map[i] = graph.VertexID(uint32(src[o]) | uint32(src[o+1])<<8 | uint32(src[o+2])<<16 | uint32(src[o+3])<<24)
	}
	if shared == 0 {
		for i := n; i < maxPatternVertices; i++ {
			m.Map[i] = unmapped
		}
	}
	o := 1 + 4*n
	m.Expanded = uint16(src[o]) | uint16(src[o+1])<<8
	m.Pending = uint32(src[o+2]) | uint32(src[o+3])<<8 | uint32(src[o+4])<<16 | uint32(src[o+5])<<24
	m.Next = int8(src[o+6])
	if err := m.checkNext(); err != nil {
		return fmt.Errorf("gpsi group wire: %w", err)
	}
	return nil
}
