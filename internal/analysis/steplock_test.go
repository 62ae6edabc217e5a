package analysis

import (
	"go/types"
	"sort"
	"testing"
)

// TestStepLockTablesResolve pins the steplock tables to the code they
// guard: every package, type, method and function named in stepForbidden
// and stepForbiddenFuncs resolves to a declaration. The analyzer matches
// by name, so a rename or deletion would otherwise disable its rule
// silently.
func TestStepLockTablesResolve(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks the packages the tables name")
	}
	var paths []string
	for path := range stepForbidden {
		paths = append(paths, path)
	}
	for path := range stepForbiddenFuncs {
		if _, dup := stepForbidden[path]; !dup {
			paths = append(paths, path)
		}
	}
	sort.Strings(paths)
	pkgs, err := Load(".", paths...)
	if err != nil {
		t.Fatalf("load %v: %v", paths, err)
	}
	byPath := map[string]*types.Package{}
	for _, p := range pkgs {
		byPath[p.PkgPath] = p.Types
	}
	for _, path := range paths {
		pkg := byPath[path]
		if pkg == nil {
			t.Errorf("steplock names package %s, which did not load", path)
			continue
		}
		for typeName, methods := range stepForbidden[path] {
			tn, ok := pkg.Scope().Lookup(typeName).(*types.TypeName)
			if !ok {
				t.Errorf("stepForbidden names type %s.%s, which is not declared", path, typeName)
				continue
			}
			for method := range methods {
				obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(tn.Type()), true, pkg, method)
				if _, ok := obj.(*types.Func); !ok {
					t.Errorf("stepForbidden names method %s.%s.%s, which is not declared", path, typeName, method)
				}
			}
		}
		for name := range stepForbiddenFuncs[path] {
			if _, ok := pkg.Scope().Lookup(name).(*types.Func); !ok {
				t.Errorf("stepForbiddenFuncs names function %s.%s, which is not declared", path, name)
			}
		}
	}
}
