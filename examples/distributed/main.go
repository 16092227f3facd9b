// Distributed: run PSgL with the loopback-TCP message exchange, the
// single-machine analogue of the paper's cluster deployment — every
// inter-worker partial subgraph instance is encoded into a binary wire frame
// and round-trips the network stack. The instance counts must match the in-process exchange
// exactly; the wall-time difference is the serialization + transport cost.
//
// Run with: go run ./examples/distributed
package main

import (
	"fmt"
	"log"

	"psgl"
)

func main() {
	g := psgl.GenerateChungLu(10_000, 40_000, 1.8, 5)
	fmt.Printf("data graph: %d vertices, %d edges\n\n", g.NumVertices(), g.NumEdges())

	run := func(label string, tcp bool) int64 {
		opts := psgl.NewOptions()
		opts.Workers = 4
		if tcp {
			opts.Exchange = psgl.NewTCPExchange()
		}
		res, err := psgl.List(g, psgl.Square(), opts)
		if err != nil {
			log.Fatalf("%s: %v", label, err)
		}
		fmt.Printf("%-22s count=%d  messages=%d  wall=%v\n",
			label, res.Count, res.Stats.GpsiGenerated, res.Stats.WallTime.Round(1_000_000))
		return res.Count
	}

	local := run("in-process exchange", false)
	tcp := run("loopback TCP exchange", true)
	if local != tcp {
		log.Fatalf("counts diverged: local=%d tcp=%d", local, tcp)
	}
	fmt.Println("\ncounts agree across transports.")
}
