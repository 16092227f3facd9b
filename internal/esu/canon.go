package esu

import (
	"fmt"
	"strings"
	"sync"
)

// Canonical forms for k-vertex subgraphs, k in [MinK, MaxK]. A subgraph on
// vertices labeled 0..k-1 is encoded as an upper-triangle adjacency code:
// bit pairIdx(i,j) is set iff {i,j} is an edge, with pairs numbered
// lexicographically — (0,1),(0,2),...,(0,k-1),(1,2),... For k=5 the code is
// 10 bits, so the entire raw-code space is at most 1024 values per k and the
// memo cache converges after a handful of misses per shape.
//
// The canonical form is exact (no hashing, no heuristics): the minimum code
// over every degree-respecting relabeling — permutations that list vertices
// in non-increasing degree order. Any isomorphism preserves degrees, so two
// graphs are isomorphic iff their canonical codes are equal; the degree-
// sequence refinement only prunes the permutation search (down to a single
// candidate when all degrees differ), it never changes the result. The
// exhaustive fallback — permuting freely inside equal-degree classes — costs
// at most 5! = 120 code evaluations for a degree-regular 5-vertex subgraph.

const (
	// MinK and MaxK bound the census subgraph size. k=2 degenerates to edge
	// counting; above 5 the motif space explodes (and the exhaustive
	// canonicalization with it), which is graphlet territory the paper's
	// workloads do not reach.
	MinK = 2
	MaxK = 5
)

// pairIdx[k][i][j] is the code bit of pair {i,j} (i != j) for subgraph size k.
var pairIdx [MaxK + 1][MaxK][MaxK]int

func init() {
	for k := MinK; k <= MaxK; k++ {
		bit := 0
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				pairIdx[k][i][j] = bit
				pairIdx[k][j][i] = bit
				bit++
			}
		}
	}
}

// codeBits returns the number of code bits for subgraph size k.
func codeBits(k int) int { return k * (k - 1) / 2 }

// CanonicalCode returns the canonical form of the k-vertex subgraph encoded
// by code: the minimum code over all degree-respecting relabelings. It is
// invariant under any relabeling of the input (the FuzzCanonicalForm
// property) and equal only for isomorphic subgraphs.
func CanonicalCode(k int, code uint32) uint32 {
	if k < MinK || k > MaxK {
		panic(fmt.Sprintf("esu: subgraph size %d out of range [%d,%d]", k, MinK, MaxK))
	}
	var deg [MaxK]int
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if code&(1<<uint(pairIdx[k][i][j])) != 0 {
				deg[i]++
				deg[j]++
			}
		}
	}
	// order lists vertices by degree descending (stable): the target labeling
	// every candidate permutation must respect.
	var order [MaxK]int
	for i := 0; i < k; i++ {
		order[i] = i
	}
	for i := 1; i < k; i++ { // insertion sort; k <= 5
		for j := i; j > 0 && deg[order[j]] > deg[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	perm := order
	best := ^uint32(0)
	eval := func() {
		var c uint32
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				if code&(1<<uint(pairIdx[k][perm[i]][perm[j]])) != 0 {
					c |= 1 << uint(pairIdx[k][i][j])
				}
			}
		}
		if c < best {
			best = c
		}
	}
	// Permute within each maximal run of equal degrees (the refinement
	// classes); positions across classes are fixed by the degree order.
	var rec func(pos int)
	rec = func(pos int) {
		if pos == k {
			eval()
			return
		}
		end := pos
		for end < k && deg[order[end]] == deg[order[pos]] {
			end++
		}
		var permuteClass func(i int)
		permuteClass = func(i int) {
			if i == end {
				rec(end)
				return
			}
			for j := i; j < end; j++ {
				perm[i], perm[j] = perm[j], perm[i]
				permuteClass(i + 1)
				perm[i], perm[j] = perm[j], perm[i]
			}
		}
		permuteClass(pos)
	}
	rec(0)
	return best
}

// CodeEdges decodes a subgraph code into its edge list (a < b, lexicographic).
func CodeEdges(k int, code uint32) [][2]int {
	var edges [][2]int
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if code&(1<<uint(pairIdx[k][i][j])) != 0 {
				edges = append(edges, [2]int{i, j})
			}
		}
	}
	return edges
}

// MotifDSL renders a subgraph code in the pattern DSL's explicit-edges form,
// e.g. "edges(0-1,0-2,1-2)" for the triangle — so a census class can be fed
// straight back into a /query listing for that motif.
func MotifDSL(k int, code uint32) string {
	edges := CodeEdges(k, code)
	if len(edges) == 0 {
		return "edges()"
	}
	var sb strings.Builder
	sb.WriteString("edges(")
	for i, e := range edges {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%d-%d", e[0], e[1])
	}
	sb.WriteByte(')')
	return sb.String()
}

// canonShards is the shard count of the memo cache. Power of two; sized so
// that even MaxK's full 1024-code space spreads ~16 entries per shard.
const canonShards = 64

// CanonCache memoizes raw adjacency code → canonical code so every subgraph
// shape is canonicalized exactly once across all census workers (and, when
// the cache is shared by a resident server, across queries too). Lookups
// take a sharded read lock; the first worker to see a shape pays the
// permutation search, everyone else gets a read-mostly hit. Hit/miss
// accounting is the caller's: Lookup reports whether it hit so workers can
// keep contention-free local counters.
type CanonCache struct {
	k      int
	shards [canonShards]canonShard
}

type canonShard struct {
	mu sync.RWMutex
	m  map[uint32]uint32
	// pad spaces shards across cache lines so one shard's lock traffic does
	// not false-share with its neighbors.
	_ [40]byte
}

// NewCanonCache returns an empty memo cache for subgraph size k.
func NewCanonCache(k int) *CanonCache {
	if k < MinK || k > MaxK {
		panic(fmt.Sprintf("esu: subgraph size %d out of range [%d,%d]", k, MinK, MaxK))
	}
	c := &CanonCache{k: k}
	for i := range c.shards {
		c.shards[i].m = make(map[uint32]uint32, 8)
	}
	return c
}

// K returns the subgraph size the cache canonicalizes.
func (c *CanonCache) K() int { return c.k }

// Lookup returns the canonical code for code, computing and memoizing it on
// first sight. hit reports whether the value was already cached.
func (c *CanonCache) Lookup(code uint32) (canon uint32, hit bool) {
	s := &c.shards[(code*0x9e3779b1)>>26%canonShards]
	s.mu.RLock()
	canon, ok := s.m[code]
	s.mu.RUnlock()
	if ok {
		return canon, true
	}
	canon = CanonicalCode(c.k, code)
	s.mu.Lock()
	// A worker that lost the race to memoize code reports a hit, so each
	// distinct code misses exactly once however the workers interleave.
	_, raced := s.m[code]
	s.m[code] = canon
	s.mu.Unlock()
	return canon, raced
}

// Size returns the number of memoized codes.
func (c *CanonCache) Size() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}
