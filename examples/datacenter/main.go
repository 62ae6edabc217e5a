// Datacenter monitoring — the paper's motivating Query R: wireless
// temperature/energy sensors in an instrumented data center pair up
// readings from adjacent sensors when they diverge, so the base station
// can shed load from overheating machines.
//
// We run the region join (Query 3: pairs within 5 m whose readings differ
// by more than 1000 counts) on the Intel Research-Berkeley lab layout —
// the paper's stand-in for an instrumented machine room — and show why
// the adaptive strategy is the one you would deploy: it starts with no
// knowledge of selectivities (joining at the base) and migrates join
// nodes into the network as estimates firm up.
//
//	go run ./examples/datacenter
package main

import (
	"fmt"
	"log"

	aspen "repro"
)

func main() {
	fmt.Println("Query R: event pairing in an instrumented data center (Intel lab layout)")
	fmt.Println()
	fmt.Printf("%-16s %12s %12s %12s %10s\n", "strategy", "total KB", "base KB", "max-node KB", "events")

	pessimistic := aspen.Rates{SigmaS: 1, SigmaT: 1, SigmaST: 1} // "assume everything joins"
	for _, s := range []struct {
		label string
		alg   aspen.Algorithm
		learn bool
	}{
		{"Naive", aspen.Naive, false},
		{"Yang+07", aspen.Yang07, false},
		{"GHT", aspen.GHT, false},
		{"Innet", aspen.Innet, false},
		{"Innet-cmpg learn", aspen.InnetCMPG, true},
	} {
		job := aspen.QueryJob{
			Query:     aspen.Query3,
			Algorithm: s.alg,
			Rates:     aspen.Rates{SigmaS: 1, SigmaT: 1, SigmaST: 0.2},
			Cycles:    200,
		}
		if s.learn {
			// The deployed scenario: no prior selectivity knowledge.
			job.OptimizerRates = &pessimistic
		}
		e, err := aspen.NewEngine(aspen.EngineConfig{Topology: aspen.Intel, Seed: 1, Adapt: s.learn})
		if err != nil {
			log.Fatal(err)
		}
		if _, err := e.Submit(job); err != nil {
			log.Fatal(err)
		}
		all, err := e.Run(200)
		if err != nil {
			log.Fatal(err)
		}
		rep := all.Queries[0]
		fmt.Printf("%-16s %12.1f %12.1f %12.1f %10d\n",
			s.label,
			float64(rep.TotalBytes)/1024,
			float64(rep.BaseBytes)/1024,
			float64(rep.MaxNodeBytes)/1024,
			rep.Results)
	}
	fmt.Println()
	fmt.Println("The learning run starts with every join at the base (zero knowledge)")
	fmt.Println("and converges toward the full-knowledge In-Net placement — the")
	fmt.Println("behaviour the paper reports in Figure 13.")
}
