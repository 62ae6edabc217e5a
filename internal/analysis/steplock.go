package analysis

import (
	"go/ast"
	"go/types"
)

// StepLock mechanizes the join.Stepper concurrency contract (audited in
// PR 5, documented on the Stepper interface): internal/engine steps
// independent queries on parallel workers, so a Step method may write
// only query-owned state and read shared structures — every API that
// mutates shared state (routing repair and substrate extension, dht.Ring
// route memoization, liveness mutation, parent-cache invalidation) is
// confined to Start or to the engine's sequential recovery/adaptivity
// phases. A Step body that calls one of those APIs is a data race and a
// determinism hole the -race battery only catches when schedules collide.
//
// rng.Source methods are forbidden wholesale inside Step: query-owned
// randomness is drawn through the sampler, so a direct source draw in
// Step is either shared (a race) or a new side channel. The check is
// syntactic over the Step body including its closures; it does not chase
// same-package helper calls. Escape hatch //aspen:stepsafe records an
// audited exception.
var StepLock = &Analyzer{
	Name: "steplock",
	Doc:  "forbid sequential-only substrate/repairer/shared-memoization APIs inside join stepper Step methods",
	Run:  runStepLock,
}

// stepLockPkgs is the package set whose Step methods the analyzer audits:
// the join steppers (parallel workers) and the engine package itself —
// Engine.Step is the scheduler, whose shared-state mutation must route
// through the named sequential-phase helpers (applyChurn, admit, …), not
// sit inline in Step where a refactor could drift it past the barrier.
var stepLockPkgs = map[string]bool{"join": true, "engine": true}

// stepForbiddenFuncs maps package path -> package-level functions
// forbidden inside Step: the tree-maintenance entry points mutate (or
// replace) routing trees every worker reads, so they are barrier-only.
var stepForbiddenFuncs = map[string]map[string]bool{
	"repro/internal/routing": {
		"PatchTreeLive":   true, // patches Parent/Depth/children in place
		"RebuildTreeLive": true, // reads the liveness view mid-mutation
	},
}

// stepForbidden maps package path -> receiver type -> forbidden methods.
// A nil method set forbids every method of the type.
var stepForbidden = map[string]map[string]map[string]bool{
	"repro/internal/routing": {
		"Repairer": nil, // repair/exploration is the engine's sequential recovery phase
		"Substrate": {
			"ExtendIndexes":        true,
			"ExtendPositionIndex":  true,
			"ReleaseIndexes":       true,
			"ReleasePositionIndex": true,
			"RepairTrees":          true,
		},
	},
	"repro/internal/dht": {
		"Ring": {
			"Route":           true, // memoizes per-destination parent vectors (filled during sequential admission)
			"ObserveFailures": true,
		},
	},
	"repro/internal/topology": {
		"Liveness":    {"Fail": true, "Revive": true},
		"ParentCache": {"Invalidate": true},
	},
	"repro/internal/sim": {
		"Network": {"Fail": true, "Revive": true}, // liveness changes only between Steps
	},
	"repro/internal/rng": {
		"Source": nil,
	},
}

func runStepLock(p *Pass) error {
	if !stepLockPkgs[p.Pkg.Name] {
		return nil
	}
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Name.Name != "Step" || fd.Body == nil {
				continue
			}
			checkStepBody(p, fd)
		}
	}
	return nil
}

func checkStepBody(p *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		s := p.Pkg.Info.Selections[sel]
		if s == nil {
			// Not a method value: a qualified identifier (pkg.Func) lands
			// here. Check the package-level forbidden set.
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := p.Pkg.Info.Uses[id].(*types.PkgName)
			if !ok {
				return true
			}
			path := pn.Imported().Path()
			if !stepForbiddenFuncs[path][sel.Sel.Name] || p.Annotated("stepsafe", call) {
				return true
			}
			p.Reportf(call.Pos(), "%s.%s called inside %s.Step: barrier-only tree maintenance — trees are shared read-only while workers step, so patching or rebuilding belongs in the engine's sequential recovery phase (annotate //aspen:stepsafe only with an audit trail)", path, sel.Sel.Name, recvTypeName(p, fd))
			return true
		}
		if s.Kind() != types.MethodVal {
			return true
		}
		for pkgPath, typeSet := range stepForbidden {
			typeName, fromPkg := typeFromPkg(s.Recv(), pkgPath)
			if !fromPkg {
				continue
			}
			methods, forbiddenType := typeSet[typeName]
			if !forbiddenType || (methods != nil && !methods[sel.Sel.Name]) {
				continue
			}
			if p.Annotated("stepsafe", call) {
				continue
			}
			p.Reportf(call.Pos(), "%s.%s.%s called inside %s.Step: sequential-only per the Stepper concurrency contract — shared-state mutation belongs in Start or the engine's sequential recovery/adaptivity phases (annotate //aspen:stepsafe only with an audit trail)", pkgPath, typeName, sel.Sel.Name, recvTypeName(p, fd))
		}
		return true
	})
}

// recvTypeName names the receiver type of a method declaration for
// diagnostics ("siteStepper" from func (s *siteStepper) Step).
func recvTypeName(p *Pass, fd *ast.FuncDecl) string {
	if len(fd.Recv.List) == 0 {
		return "?"
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return "?"
}
