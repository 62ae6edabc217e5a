// Quickstart: run one in-network join query over a simulated 100-node
// sensor network and print where the traffic went.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	aspen "repro"
)

func main() {
	// Query 1 (Table 2 of the paper): sensors with id<25 join sensors
	// with id>50 on a static attribute equality (S.x = T.y+5) and a
	// dynamic reading equality (S.u = T.u), over a 3-tuple window.
	report := run(aspen.InnetCMG) // in-network join + multicast + group opt

	fmt.Println("Aspen sensor join — quickstart")
	fmt.Printf("  algorithm:       %s\n", report.Algorithm)
	fmt.Printf("  join results:    %d delivered to the base station\n", report.Results)
	fmt.Printf("  total traffic:   %.1f KB across the network\n", float64(report.TotalBytes)/1024)
	fmt.Printf("  base station:    %.1f KB (the congestion hot spot)\n", float64(report.BaseBytes)/1024)
	fmt.Printf("  placement:       %d pairs joined in-network, %d at the base\n",
		report.InNetPairs, report.AtBasePairs)

	// Compare against the naive strategy: ship everything to the base.
	naive := run(aspen.Naive)
	fmt.Printf("\n  vs Naive:        %.1f KB total — in-network optimization saved %.0f%%\n",
		float64(naive.TotalBytes)/1024,
		100*(1-float64(report.TotalBytes)/float64(naive.TotalBytes)))
}

// run deploys 100 sensors, submits Query 1 under alg as the engine's only
// query, and runs it for 100 sampling cycles.
func run(alg aspen.Algorithm) aspen.QueryEngineReport {
	e, err := aspen.NewEngine(aspen.EngineConfig{
		Topology: aspen.ModerateRandom,
		Nodes:    100,
		Seed:     1,
	})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := e.Submit(aspen.QueryJob{
		Query:     aspen.Query1,
		Algorithm: alg,
		Rates:     aspen.Rates{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 0.1},
		Cycles:    100,
	}); err != nil {
		log.Fatal(err)
	}
	rep, err := e.Run(100)
	if err != nil {
		log.Fatal(err)
	}
	return rep.Queries[0]
}
