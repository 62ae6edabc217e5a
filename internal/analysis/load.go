package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded, typechecked package: parsed syntax plus type
// information, positioned in a FileSet shared across the whole Load.
type Package struct {
	PkgPath string
	Name    string
	Dir     string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
	// Deterministic marks a package on the engine's execution path (see
	// deterministicSet), where the determinism analyzers apply.
	Deterministic bool
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Imports    []string
	Export     string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// goList runs the go tool in dir and decodes its JSON package stream.
func goList(dir string, args ...string) ([]*listPkg, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var pkgs []*listPkg
	dec := json.NewDecoder(out)
	for {
		p := new(listPkg)
		if err := dec.Decode(p); err != nil {
			if err == io.EOF {
				break
			}
			cmd.Wait()
			return nil, fmt.Errorf("go list: decoding output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return pkgs, nil
}

// Load resolves the patterns with `go list` run in dir, then parses and
// typechecks every matched package from source in dependency order. The
// type information for packages outside the match set (the standard
// library, and unmatched module packages) comes from the compiler's
// export data (`go list -export`), so the loader needs nothing beyond
// the standard library and the go tool itself.
func Load(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{"list", "-export", "-deps", "-json"}, patterns...)
	listed, err := goList(dir, args...)
	if err != nil {
		return nil, err
	}
	deterministic, err := deterministicSet(dir)
	if err != nil {
		return nil, err
	}

	exports := map[string]string{}
	var targets []*listPkg
	byPath := map[string]*listPkg{}
	for _, p := range listed {
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		byPath[p.ImportPath] = p
		if !p.DepOnly && !p.Standard {
			targets = append(targets, p)
		}
	}

	// Dependency order among the targets: postorder DFS over the Imports
	// graph restricted to the target set, so a package is always checked
	// after every target it imports (go list guarantees acyclicity).
	targetSet := map[string]bool{}
	for _, p := range targets {
		targetSet[p.ImportPath] = true
	}
	var order []*listPkg
	state := map[string]int{} // 0 unvisited, 1 in progress, 2 done
	var visit func(p *listPkg)
	visit = func(p *listPkg) {
		if state[p.ImportPath] != 0 {
			return
		}
		state[p.ImportPath] = 1
		for _, imp := range p.Imports {
			if targetSet[imp] {
				visit(byPath[imp])
			}
		}
		state[p.ImportPath] = 2
		order = append(order, p)
	}
	for _, p := range targets {
		visit(p)
	}

	fset := token.NewFileSet()
	checked := map[string]*types.Package{}
	imp := &loadImporter{
		checked: checked,
		gc: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			exp, ok := exports[path]
			if !ok {
				return nil, fmt.Errorf("no export data for %q", path)
			}
			return os.Open(exp)
		}),
	}

	var out []*Package
	for _, p := range order {
		files := make([]*ast.File, 0, len(p.GoFiles))
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
		}
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("typecheck %s: %w", p.ImportPath, err)
		}
		checked[p.ImportPath] = tpkg
		out = append(out, &Package{
			PkgPath:       p.ImportPath,
			Name:          p.Name,
			Dir:           p.Dir,
			Fset:          fset,
			Files:         files,
			Types:         tpkg,
			Info:          info,
			Deterministic: deterministic[p.ImportPath],
		})
	}
	return out, nil
}

// loadImporter serves already-source-checked target packages from the
// cache and everything else from compiler export data.
type loadImporter struct {
	checked map[string]*types.Package
	gc      types.Importer
}

func (li *loadImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := li.checked[path]; ok {
		return p, nil
	}
	return li.gc.Import(path)
}
