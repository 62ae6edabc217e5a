package analysis

import (
	"regexp"
	"strings"
	"testing"
)

// wantRe matches the golden-test expectation comment form:
//
//	expr // want "regex"
//	expr // want `regex`
//
// The regex must match the diagnostic message reported on that line.
var wantRe = regexp.MustCompile("^// want (\"([^\"]*)\"|`([^`]*)`)$")

// wantKey locates one expectation: a diagnostic must land on this exact
// file and line.
type wantKey struct {
	file string
	line int
}

// collectWants scans a fixture package's comments for want expectations.
func collectWants(t *testing.T, pkg *Package) map[wantKey][]string {
	t.Helper()
	wants := map[wantKey][]string{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pat := m[2]
				if pat == "" {
					pat = m[3]
				}
				if _, err := regexp.Compile(pat); err != nil {
					t.Fatalf("bad want pattern %q: %v", pat, err)
				}
				pos := pkg.Fset.Position(c.Pos())
				k := wantKey{file: pos.Filename, line: pos.Line}
				wants[k] = append(wants[k], pat)
			}
		}
	}
	return wants
}

// runGolden loads testdata/src/<name>, runs one analyzer, and diffs its
// diagnostics against the fixture's want comments in both directions:
// every diagnostic must satisfy a want on its line, and every want must
// be consumed by exactly one diagnostic.
func runGolden(t *testing.T, fixture string, a *Analyzer) {
	t.Helper()
	pkgs, err := Load(".", "./testdata/src/"+fixture)
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("fixture loaded %d packages, want 1", len(pkgs))
	}
	pkg := pkgs[0]
	wants := collectWants(t, pkg)
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want comments", fixture)
	}
	diags, err := Run(pkgs, []*Analyzer{a})
	if err != nil {
		t.Fatalf("run %s: %v", a.Name, err)
	}
	for _, d := range diags {
		k := wantKey{file: d.Position.Filename, line: d.Position.Line}
		matched := -1
		for i, pat := range wants[k] {
			if regexp.MustCompile(pat).MatchString(d.Message) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("unexpected diagnostic: %s", d)
			continue
		}
		wants[k] = append(wants[k][:matched], wants[k][matched+1:]...)
		if len(wants[k]) == 0 {
			delete(wants, k)
		}
	}
	for k, pats := range wants {
		for _, pat := range pats {
			t.Errorf("missing diagnostic at %s:%d matching %q", k.file, k.line, pat)
		}
	}
}

func TestGoldenDetRand(t *testing.T)     { runGolden(t, "detrand", DetRand) }
func TestGoldenMapOrder(t *testing.T)    { runGolden(t, "maporder", MapOrder) }
func TestGoldenObsFeedback(t *testing.T) { runGolden(t, "obsfeedback", ObsFeedback) }
func TestGoldenStepLock(t *testing.T)    { runGolden(t, "steplock", StepLock) }

// TestByName pins -run resolution: known names, the empty default, and
// the unknown-name error callers turn into exit status 2.
func TestByName(t *testing.T) {
	all, err := ByName("")
	if err != nil || len(all) != 4 {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v; want 4, nil", len(all), err)
	}
	picked, err := ByName("steplock, detrand")
	if err != nil || len(picked) != 2 || picked[0].Name != "steplock" || picked[1].Name != "detrand" {
		t.Fatalf("ByName(\"steplock, detrand\") = %v, %v", picked, err)
	}
	if _, err := ByName("nosuch"); err == nil || !strings.Contains(err.Error(), "unknown analyzer") {
		t.Fatalf("ByName(\"nosuch\") err = %v, want unknown analyzer", err)
	}
}

// TestDiagnosticString pins the human-readable rendering the CLI prints.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Analyzer: "detrand", Message: "m"}
	d.Position.Filename = "f.go"
	d.Position.Line = 3
	d.Position.Column = 7
	if got, want := d.String(), "f.go:3:7: detrand: m"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

// TestRepoClean pins the acceptance criterion that the analyzer suite
// exits clean on the repo's own tree: every true positive is fixed, every
// audited exception annotated. A regression in either direction — new
// violation or analyzer false positive — fails here first.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks the whole repo")
	}
	pkgs, err := Load(".", "repro/...")
	if err != nil {
		t.Fatalf("load repo: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages — pattern repro/... broken?", len(pkgs))
	}
	diags, err := Run(pkgs, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("repo not clean: %s", d)
	}
}

// TestDeterministicSetLoaded pins the derived deterministic set from both
// sides: it covers every package the hand-kept list it replaced did plus
// the execution-path packages that list missed, leaves internal/obs out,
// and the loader marks exactly its members — so neither a rename nor a
// new import can silently drop a package out of enforcement.
func TestDeterministicSetLoaded(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks the whole repo")
	}
	set, err := deterministicSet(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"sim", "join", "engine", "faults", "routing", "adapt", "mpo", "window", "dht", "topology", "workload",
		"core", "costmodel", "summary", "query", "ght", "rng", "geom",
	} {
		if !set["repro/internal/"+name] {
			t.Errorf("deterministic set is missing internal/%s", name)
		}
	}
	if set[obsPkgPath] {
		t.Errorf("deterministic set includes %s", obsPkgPath)
	}
	pkgs, err := Load(".", "repro/internal/...")
	if err != nil {
		t.Fatal(err)
	}
	marked := 0
	for _, p := range pkgs {
		if p.Deterministic != set[p.PkgPath] {
			t.Errorf("%s loaded with Deterministic=%v, set says %v", p.PkgPath, p.Deterministic, set[p.PkgPath])
		}
		if p.Deterministic {
			marked++
		}
	}
	if marked != len(set) {
		t.Errorf("loader marked %d packages, deterministic set has %d", marked, len(set))
	}
}

// TestLoadErrors pins loader failure modes surfaced as exit status 2.
func TestLoadErrors(t *testing.T) {
	if _, err := Load(".", "./does/not/exist"); err == nil {
		t.Error("Load of a nonexistent pattern succeeded")
	}
	if _, err := Load(".", "repro/nosuchpkg"); err == nil {
		t.Error("Load of a nonexistent import path succeeded")
	}
}
