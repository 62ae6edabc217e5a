// Package analysis is the repo's invariant-enforcing static-analysis
// framework: a stdlib-only loader (go list + go/parser + go/types, no
// external dependencies) plus a small analyzer API in the shape of
// golang.org/x/tools/go/analysis, scoped to exactly what this codebase
// needs. It exists because the engine's correctness invariants — byte-
// identical output at any worker count, all randomness through
// internal/rng, observation never feeding back into execution, the
// allocation-free steady-state hot path — live in doc comments and
// property tests, which only catch violations on exercised paths. A
// static pass catches them at the diff.
//
// Shipped analyzers (run via cmd/aspen-vet):
//
//   - detrand: forbids wall-clock reads (time.Now/time.Since) and any use
//     of math/rand (global or local — all randomness is drawn through
//     internal/rng) inside the deterministic package set. Escape hatch
//     //aspen:wallclock for audited observability timing paths.
//   - maporder: flags `range` over a map in deterministic packages unless
//     the loop body is provably order-invariant (commutative integer
//     accumulation, distinct-key map writes, deletes) or the site carries
//     //aspen:orderinvariant. Map-iteration order leaking into output is
//     the classic way worker-count byte-identity dies.
//   - obsfeedback: forbids reading a value out of an internal/obs handle
//     (Counter.Value, Registry.Snapshot, ...) inside deterministic
//     packages — observation must never feed back into execution. Escape
//     hatch //aspen:obsread for deliberate introspection surfaces.
//   - steplock: inside join stepper Step methods, forbids calls to the
//     substrate/repairer/shared-memoization APIs documented sequential-
//     only by the PR-5 concurrency contract. Escape hatch //aspen:stepsafe.
//
// Alongside the AST analyzers, escape.go implements the allocfree gate:
// functions annotated //aspen:allocfree are checked against the
// compiler's own escape analysis (go build -gcflags=-m) and any heap
// allocation inside an annotated body fails the build.
//
// Annotations are ordinary line comments of the form //aspen:<tag>. A tag
// applies to a statement when it appears on the same line, on the line
// directly above, or in the doc comment of the enclosing function
// declaration. The file-scope marker //aspen:deterministic opts a package
// into the deterministic set regardless of its import path (used by the
// golden-test packages under testdata).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding, resolved to a file position.
type Diagnostic struct {
	// Position is the resolved file:line:col of the finding.
	Position token.Position `json:"position"`
	// Analyzer names the analyzer that reported it.
	Analyzer string `json:"analyzer"`
	// Message describes the violated invariant at this site.
	Message string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Position, d.Analyzer, d.Message)
}

// Analyzer is one invariant check. Run inspects a typechecked package
// through its Pass and reports findings via Pass.Reportf.
type Analyzer struct {
	// Name is the identifier used by -run and in diagnostics.
	Name string
	// Doc is a one-line description of the enforced invariant.
	Doc string
	// Run executes the check over one package.
	Run func(*Pass) error
}

// Pass carries one analyzer's view of one loaded package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	diags *[]Diagnostic
	ann   *annotations
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Position: p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Annotated reports whether the aspen:<tag> escape hatch covers the node:
// a //aspen:<tag> comment on the node's line, on the line directly above
// it, or in the doc comment of the function declaration enclosing it.
func (p *Pass) Annotated(tag string, n ast.Node) bool {
	pos := p.Pkg.Fset.Position(n.Pos())
	lines, ok := p.ann.byFile[pos.Filename]
	if !ok {
		return false
	}
	if lines[pos.Line][tag] || lines[pos.Line-1][tag] {
		return true
	}
	for _, fr := range p.ann.funcs[pos.Filename] {
		if fr.tags[tag] && fr.from <= pos.Line && pos.Line <= fr.to {
			return true
		}
	}
	return false
}

// Deterministic reports whether this package is in the deterministic set:
// either the loader found it on the engine's execution path (see
// deterministicSet), or a file carries the //aspen:deterministic marker
// (how testdata packages opt in).
func (p *Pass) Deterministic() bool {
	return p.Pkg.Deterministic || p.ann.markers["deterministic"]
}

// deterministicSet derives the package set whose execution must be bit-
// reproducible from the seed: the import closure, within the module, of the
// engine plus the two join.HomeRouter implementations it reaches only
// through that interface — so a package that joins the execution path is
// checked without anyone listing it. internal/obs is in the closure but
// deliberately outside the set — it observes runs (wall clocks allowed)
// without feeding back in, which obsfeedback enforces from the other side.
func deterministicSet(dir string) (map[string]bool, error) {
	listed, err := goList(dir, "list", "-deps", "-json",
		"repro/internal/engine", "repro/internal/dht", "repro/internal/ght")
	if err != nil {
		return nil, err
	}
	set := map[string]bool{}
	for _, p := range listed {
		if !p.Standard && p.ImportPath != obsPkgPath {
			set[p.ImportPath] = true
		}
	}
	return set, nil
}

// annotations indexes every //aspen:<tag> comment of one package.
type annotations struct {
	// byFile maps filename -> line -> set of tags on that line.
	byFile map[string]map[int]map[string]bool
	// funcs maps filename -> function declarations whose doc comment
	// carries tags, with their body line ranges.
	funcs map[string][]funcRange
	// markers holds file-scope tags (currently only "deterministic").
	markers map[string]bool
}

type funcRange struct {
	from, to int
	tags     map[string]bool
}

const annPrefix = "//aspen:"

// parseTags extracts aspen tags from one comment's text.
func parseTags(text string) []string {
	var tags []string
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, annPrefix); ok {
			if i := strings.IndexAny(rest, " \t"); i >= 0 {
				rest = rest[:i]
			}
			if rest != "" {
				tags = append(tags, rest)
			}
		}
	}
	return tags
}

// buildAnnotations scans the package's comments once; every Pass over the
// package shares the result.
func buildAnnotations(pkg *Package) *annotations {
	a := &annotations{
		byFile:  map[string]map[int]map[string]bool{},
		funcs:   map[string][]funcRange{},
		markers: map[string]bool{},
	}
	for _, f := range pkg.Files {
		fname := pkg.Fset.Position(f.Pos()).Filename
		lines := map[int]map[string]bool{}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, tag := range parseTags(c.Text) {
					line := pkg.Fset.Position(c.Pos()).Line
					if lines[line] == nil {
						lines[line] = map[string]bool{}
					}
					lines[line][tag] = true
					if tag == "deterministic" {
						a.markers[tag] = true
					}
				}
			}
		}
		if len(lines) > 0 {
			a.byFile[fname] = lines
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			tags := map[string]bool{}
			for _, tag := range parseTags(fd.Doc.Text()) {
				tags[tag] = true
			}
			// Doc.Text strips the comment markers, so re-scan raw lines
			// too (Text normalizes away leading slashes only; keep both
			// paths cheap and idempotent).
			for _, c := range fd.Doc.List {
				for _, tag := range parseTags(c.Text) {
					tags[tag] = true
				}
			}
			if len(tags) == 0 {
				continue
			}
			a.funcs[fname] = append(a.funcs[fname], funcRange{
				from: pkg.Fset.Position(fd.Pos()).Line,
				to:   pkg.Fset.Position(fd.End()).Line,
				tags: tags,
			})
		}
	}
	return a
}

// Analyzers returns the full suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{DetRand, MapOrder, ObsFeedback, StepLock}
}

// ByName resolves a comma-separated -run list against the suite.
func ByName(names string) ([]*Analyzer, error) {
	all := Analyzers()
	if names == "" {
		return all, nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range all {
		byName[a.Name] = a
	}
	var picked []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (have %s)", n, analyzerNames())
		}
		picked = append(picked, a)
	}
	return picked, nil
}

func analyzerNames() string {
	var names []string
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	return strings.Join(names, ", ")
}

// Run executes the given analyzers over the given packages and returns
// all diagnostics sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		ann := buildAnnotations(pkg)
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Pkg: pkg, diags: &diags, ann: ann}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.PkgPath, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// pkgPathOf returns the import path of the package an object belongs to,
// or "" for universe-scope and builtin objects.
func pkgPathOf(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// namedOf unwraps pointers and aliases down to a named type, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			return tt
		case *types.Alias:
			t = types.Unalias(tt)
		default:
			return nil
		}
	}
}

// typeFromPkg reports whether t (possibly behind pointers) is a named
// type declared in the package with the given import path, and returns
// its name.
func typeFromPkg(t types.Type, pkgPath string) (string, bool) {
	n := namedOf(t)
	if n == nil || n.Obj() == nil || n.Obj().Pkg() == nil {
		return "", false
	}
	if n.Obj().Pkg().Path() != pkgPath {
		return "", false
	}
	return n.Obj().Name(), true
}
