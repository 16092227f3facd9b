package pattern

import "testing"

// FuzzParse drives arbitrary text through both DSL entry points, ParseCensus
// and Parse, the way /query does. The seed corpus in testdata/fuzz/FuzzParse
// covers the catalog names, every generator at and past its cap, explicit
// edge lists with vertex labels, and census(k). Invariants under fuzz:
//
//   - neither parser panics;
//   - an accepted census(k) has MinCensusK <= k <= MaxCensusK;
//   - an accepted pattern fits the engine (at most MaxVertices vertices and
//     MaxEdges edges), is connected, and its DSL() spelling parses back to
//     the same CanonicalKey — with labels applied to both, when any are given.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string, labels []byte) {
		if k, ok, err := ParseCensus(src); ok && err == nil && (k < MinCensusK || k > MaxCensusK) {
			t.Fatalf("ParseCensus(%q) accepted k=%d outside [%d,%d]", src, k, MinCensusK, MaxCensusK)
		}
		p, err := Parse(src)
		if err != nil {
			return
		}
		if p.N() > MaxVertices || p.NumEdges() > MaxEdges {
			t.Fatalf("Parse(%q): %d vertices, %d edges exceed the caps %d, %d", src, p.N(), p.NumEdges(), MaxVertices, MaxEdges)
		}
		if !p.connected() {
			t.Fatalf("Parse(%q) accepted a disconnected pattern %s", src, p.DSL())
		}
		q, err := Parse(p.DSL())
		if err != nil {
			t.Fatalf("Parse(%q).DSL() = %q does not parse: %v", src, p.DSL(), err)
		}
		if len(labels) > 0 {
			l := make([]int, p.N())
			for i := range l {
				l[i] = int(labels[i%len(labels)])
			}
			if p, err = p.WithLabels(l); err != nil {
				t.Fatal(err)
			}
			if q, err = q.WithLabels(l); err != nil {
				t.Fatal(err)
			}
		}
		if p.CanonicalKey() != q.CanonicalKey() {
			t.Fatalf("Parse(%q) key %q, its DSL() %q parses to key %q", src, p.CanonicalKey(), p.DSL(), q.CanonicalKey())
		}
	})
}
