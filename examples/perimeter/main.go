// Perimeter monitoring — the paper's Query P: sensors in different regions
// of a mesh (here: opposite rows of the deployment field) produce an event
// whenever their readings coincide. This is Table 2's Query 2, and the
// workload where in-network join placement shines: producer pairs span the
// field, so shipping both sides to the base wastes the most traffic.
//
// The example sweeps the relative selectivity stages of Figures 2-3 and
// prints which algorithm wins each stage.
//
//	go run ./examples/perimeter
package main

import (
	"fmt"
	"log"

	aspen "repro"
)

func main() {
	stages := []struct {
		name   string
		sS, sT float64
	}{
		{"1/10:1", 0.1, 1},
		{"1/2:1/2", 0.5, 0.5},
		{"1:1/10", 1, 0.1},
	}
	algorithms := []aspen.Algorithm{aspen.Naive, aspen.Base, aspen.GHT, aspen.Innet, aspen.InnetCMG}

	fmt.Println("Query P: perimeter join across the deployment field (Query 2, w=1)")
	fmt.Println()
	header := fmt.Sprintf("%-10s", "stage")
	for _, a := range algorithms {
		header += fmt.Sprintf("%12s", a)
	}
	fmt.Println(header + "      winner")

	for _, st := range stages {
		row := fmt.Sprintf("%-10s", st.name)
		best, bestKB := aspen.Algorithm(""), 0.0
		for _, alg := range algorithms {
			e, err := aspen.NewEngine(aspen.EngineConfig{Seed: 1})
			if err != nil {
				log.Fatal(err)
			}
			if _, err := e.Submit(aspen.QueryJob{
				Query:     aspen.Query2,
				Algorithm: alg,
				Rates:     aspen.Rates{SigmaS: st.sS, SigmaT: st.sT, SigmaST: 0.1},
				Cycles:    100,
			}); err != nil {
				log.Fatal(err)
			}
			rep, err := e.Run(100)
			if err != nil {
				log.Fatal(err)
			}
			kb := float64(rep.Queries[0].TotalBytes) / 1024
			row += fmt.Sprintf("%10.1fK", kb)
			if best == "" || kb < bestKB {
				best, bestKB = alg, kb
			}
		}
		fmt.Printf("%s      %s\n", row, best)
	}
	fmt.Println()
	fmt.Println("Totals are KB of radio traffic over 100 sampling cycles; the MPO")
	fmt.Println("variant (Innet-cmg) should match or beat every basic algorithm.")
}
