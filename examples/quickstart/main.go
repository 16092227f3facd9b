// Quickstart: generate a power-law graph, list a pattern in it with PSgL,
// and inspect the run statistics.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"psgl"
)

func main() {
	// A 20k-vertex power-law graph (γ = 2.1), roughly web-graph shaped.
	g := psgl.GenerateChungLu(20_000, 80_000, 2.1, 42)
	fmt.Printf("data graph: %d vertices, %d edges, max degree %d\n",
		g.NumVertices(), g.NumEdges(), g.MaxDegree())

	// Default options: 4 workers, automatic initial-pattern-vertex
	// selection.
	opts := psgl.NewOptions()
	opts.Workers = 8

	for _, p := range []*psgl.Pattern{psgl.Triangle(), psgl.Square(), psgl.Diamond()} {
		res, err := psgl.List(g, p, opts)
		if err != nil {
			log.Fatalf("listing %s: %v", p.Name(), err)
		}
		fmt.Printf("%-10s %12d instances  (%d supersteps, %d partial instances, %v)\n",
			p.Name(), res.Count, res.Stats.Supersteps, res.Stats.GpsiGenerated,
			res.Stats.WallTime.Round(1_000_000))
	}

	// Custom patterns work too; symmetry breaking is automatic.
	paw, err := psgl.NewPattern("paw", 4, // triangle with a pendant edge
		[][2]int{{0, 1}, {1, 2}, {2, 0}, {2, 3}})
	if err != nil {
		log.Fatal(err)
	}
	n, err := psgl.Count(g, paw, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-10s %12d instances\n", paw.Name(), n)
}
