// Adaptive re-optimization demo (section 6 of the paper): start a join
// with badly wrong selectivity estimates and watch learning recover.
//
// Three runs of the same workload (a 1:1 join whose S side is quiet and T
// side chatty):
//
//  1. an oracle given the true selectivities,
//  2. a static optimizer given inverted (wrong) selectivities,
//  3. the same wrong start, but with adaptive learning enabled
//     (EngineConfig.Adapt, the engine's one learning switch).
//
// The learning run should land between the other two, with join-node
// migrations doing the work.
//
//	go run ./examples/adaptive
package main

import (
	"fmt"
	"log"

	aspen "repro"
)

func main() {
	truth := aspen.Rates{SigmaS: 0.1, SigmaT: 1, SigmaST: 0.2}
	wrong := aspen.Rates{SigmaS: 1, SigmaT: 0.1, SigmaST: 0.2}

	run := func(name string, opt *aspen.Rates, alg aspen.Algorithm, adapt bool) aspen.QueryEngineReport {
		e, err := aspen.NewEngine(aspen.EngineConfig{Seed: 3, Adapt: adapt})
		if err != nil {
			log.Fatal(err)
		}
		if _, err := e.Submit(aspen.QueryJob{
			Query:          aspen.Query0,
			Pairs:          10,
			Rates:          truth,
			OptimizerRates: opt,
			Algorithm:      alg,
			Cycles:         400,
		}); err != nil {
			log.Fatal(err)
		}
		rep, err := e.Run(400)
		if err != nil {
			log.Fatal(err)
		}
		q := rep.Queries[0]
		fmt.Printf("%-24s %10.1f KB   %3d migrations   %d results\n",
			name, float64(q.TotalBytes)/1024, rep.Migrations, q.Results)
		return q
	}

	fmt.Println("Adaptive join optimization (Query 0, sigma_s=0.1 sigma_t=1.0 sigma_st=0.2)")
	fmt.Println()
	oracle := run("oracle (true sigmas)", nil, aspen.Innet, false)
	static := run("wrong sigmas, static", &wrong, aspen.Innet, false)
	learned := run("wrong sigmas, learning", &wrong, aspen.InnetCMPG, true)

	fmt.Println()
	if static.TotalBytes > oracle.TotalBytes {
		gap := float64(static.TotalBytes - oracle.TotalBytes)
		closed := float64(static.TotalBytes-learned.TotalBytes) / gap * 100
		fmt.Printf("Wrong estimates cost %.1f KB extra; learning clawed back %.0f%% of it.\n",
			gap/1024, closed)
	} else {
		fmt.Println("The wrong estimates happened to be harmless on this seed.")
	}
}
