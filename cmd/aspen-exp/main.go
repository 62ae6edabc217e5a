// Command aspen-exp regenerates the paper's tables and figures.
//
// Usage:
//
//	aspen-exp -list
//	aspen-exp -run fig2            # full fidelity (9 runs, all stages)
//	aspen-exp -run fig13 -quick    # trimmed sweeps for a fast look
//	aspen-exp -all -quick          # every artifact, quick mode
//
// Output is an aligned text table per artifact. The paper-vs-measured
// comparison is not a document: the shape tests in internal/experiments
// (TestFig2Shapes … TestFig19MeshOrdering) assert the paper's claims on
// these same rows.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	aspen "repro"
)

func main() {
	var (
		list  = flag.Bool("list", false, "list experiment IDs and titles")
		run   = flag.String("run", "", "experiment ID to run (fig2..fig20, tab3, mobility, ablation)")
		all   = flag.Bool("all", false, "run every experiment")
		quick = flag.Bool("quick", false, "trimmed sweeps (3 runs, fewer stages/cycles)")
	)
	flag.Parse()

	switch {
	case *list:
		for _, id := range aspen.Experiments() {
			title, _ := aspen.ExperimentTitle(id)
			fmt.Printf("%-10s %s\n", id, title)
		}
	case *all:
		for _, id := range aspen.Experiments() {
			if err := runOne(id, *quick); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				os.Exit(1)
			}
		}
	case *run != "":
		if err := runOne(*run, *quick); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func runOne(id string, quick bool) error {
	start := time.Now()
	out, err := aspen.RunExperiment(id, quick)
	if err != nil {
		return err
	}
	fmt.Println(out)
	fmt.Printf("(%s in %.1fs)\n\n", id, time.Since(start).Seconds())
	return nil
}
