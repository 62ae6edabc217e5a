package analysis

import (
	"go/ast"
)

// DetRand enforces the determinism-of-randomness invariant: inside the
// deterministic package set, every random draw goes through internal/rng
// (splittable, seeded at plan construction) and nothing reads the wall
// clock. A time.Now in a join stepper or a math/rand draw in the fault
// planner silently breaks seed-reproducibility and the byte-identical
// rows the drift gate pins in internal/bench/testdata/scenarios.golden.
//
// Escape hatch: //aspen:wallclock on the line (or the enclosing function's
// doc comment) permits time.Now/time.Since on audited observability
// timing paths — readings that flow only into metrics and traces, never
// into execution (the obsfeedback analyzer guards the other direction).
// There is deliberately no escape hatch for math/rand: deterministic code
// has internal/rng.
var DetRand = &Analyzer{
	Name: "detrand",
	Doc:  "forbid wall-clock reads and math/rand in deterministic packages (all randomness through internal/rng)",
	Run:  runDetRand,
}

// wallclockFuncs are the time-package functions that read the clock.
var wallclockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

func runDetRand(p *Pass) error {
	if !p.Deterministic() {
		return nil
	}
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := p.Pkg.Info.Uses[sel.Sel]
			switch pkgPathOf(obj) {
			case "time":
				if wallclockFuncs[obj.Name()] && !p.Annotated("wallclock", sel) {
					p.Reportf(sel.Pos(), "time.%s in deterministic package %s: wall-clock reads break seed-reproducibility (annotate //aspen:wallclock only for audited observability timing)", obj.Name(), p.Pkg.Name)
				}
			case "math/rand", "math/rand/v2":
				p.Reportf(sel.Pos(), "math/rand.%s in deterministic package %s: all randomness must be drawn through internal/rng", obj.Name(), p.Pkg.Name)
			}
			return true
		})
	}
	return nil
}
