package graph

// Fingerprint returns a stable 64-bit digest of the graph's structure:
// FNV-1a over the CSR offsets and adjacency arrays. Because Build sorts and
// deduplicates adjacency lists, any construction order of the same edge set
// produces the same CSR and therefore the same fingerprint. The resident
// query service reports it in /stats and the update response, so clients can
// tell which graph a server is holding. (Plans are not keyed on it: each
// graph epoch has its own plan cache, keyed on the canonical pattern alone.)
func (g *Graph) Fingerprint() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= prime64
			x >>= 8
		}
	}
	mix(uint64(len(g.offsets) - 1))
	for _, o := range g.offsets {
		mix(uint64(o))
	}
	for _, v := range g.adj {
		mix(uint64(uint32(v)))
	}
	return h
}

// EdgeFingerprint returns an order-independent 64-bit digest of the edge
// set: a seed derived from |V| plus the wrapping sum of mix64 over every
// normalized edge key. Unlike Fingerprint (a sequential FNV walk over the
// CSR arrays), this digest is a commutative sum, so an Overlay can maintain
// it incrementally — adding an edge adds its term, removing subtracts it —
// without rescanning the graph. Two graphs over the same vertex count have
// equal EdgeFingerprints iff they (almost surely) have the same edge set.
func (g *Graph) EdgeFingerprint() uint64 {
	fp := mix64(0x5851f42d4c957f2d ^ uint64(g.NumVertices()))
	g.Edges(func(u, v VertexID) bool {
		fp += mix64(edgeKey(u, v))
		return true
	})
	return fp
}
