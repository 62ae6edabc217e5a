package aspen

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// packageDocs walks every Go package in the repo — the facade, internal/,
// cmd/ and examples/ — and returns each package's doc comment (the first
// non-test file that has one; "" when none does), keyed by the package
// directory relative to the repo root.
func packageDocs(t *testing.T) map[string]string {
	t.Helper()
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	docs := map[string]string{}
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if strings.HasPrefix(name, ".") && path != root {
				return filepath.SkipDir
			}
			if name == "testdata" {
				// Analyzer golden fixtures are not real packages; the go
				// tool ignores testdata and so does the doc audit.
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, _ := filepath.Rel(root, filepath.Dir(path))
		rel = filepath.ToSlash(rel)
		if docs[rel] != "" {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ParseComments|parser.PackageClauseOnly)
		if err != nil {
			t.Errorf("%s: parse: %v", rel, err)
			return nil
		}
		docs[rel] = ""
		if f.Doc != nil {
			docs[rel] = strings.TrimSpace(f.Doc.Text())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return docs
}

// TestPackageDocPresence asserts every Go package has a package-level doc
// comment of substance on at least one non-test file. This pins the godoc
// audit: a new package (or a stripped comment) fails the build rather than
// silently shipping undocumented.
func TestPackageDocPresence(t *testing.T) {
	docs := packageDocs(t)
	// The walk is derived from the filesystem, so a package silently
	// dropped from the tree would pass vacuously; pin that the packages
	// this audit exists for are actually in the set.
	for _, must := range []string{"internal/obs", "internal/engine", "internal/bench", "internal/analysis", "cmd/aspen-vet"} {
		if _, found := docs[must]; !found {
			t.Errorf("doc audit did not visit %s — package missing or walk broken", must)
		}
	}
	for rel, doc := range docs {
		switch {
		case doc == "":
			t.Errorf("package %s: no package-level doc comment on any file", rel)
		case len(doc) < 40:
			t.Errorf("package %s: package doc comment too thin (%d chars): %q", rel, len(doc), doc)
		}
	}
}

// TestDocReferencesExist: every *.md file named in a package doc comment,
// in README.md or in DESIGN.md exists — at that path from the repo root
// or, for a package doc, beside the package. A citation of a document
// that was never written (or was deleted) fails here instead of sending a
// reader looking for it.
func TestDocReferencesExist(t *testing.T) {
	mdName := regexp.MustCompile(`[A-Za-z0-9_./-]*[A-Za-z0-9_-]\.md\b`)
	texts := packageDocs(t)
	for _, name := range []string{"README.md", "DESIGN.md"} {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		texts[name] = string(data)
	}
	checked := 0
	for src, text := range texts {
		for _, ref := range mdName.FindAllString(text, -1) {
			checked++
			_, atRoot := os.Stat(ref)
			_, beside := os.Stat(filepath.Join(src, ref))
			if atRoot != nil && beside != nil {
				t.Errorf("%s names %s, which does not exist", src, ref)
			}
		}
	}
	if checked < 10 {
		t.Fatalf("only %d .md references found — the scan is broken", checked)
	}
}

// TestReadmeWorkloadsParse: every README ```sql block that carries a
// "-- key:" directive is a workload file the reader can save and run, so
// it must parse and configure an engine.
func TestReadmeWorkloadsParse(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	directive := regexp.MustCompile(`(?m)^--\s*[a-z-]+:`)
	blocks := regexp.MustCompile("(?s)```sql\n(.*?)```").FindAllStringSubmatch(string(data), -1)
	checked := 0
	for _, b := range blocks {
		if !directive.MatchString(b[1]) {
			continue
		}
		checked++
		w, err := ParseWorkload(b[1])
		if err != nil {
			t.Errorf("README workload does not parse: %v\n%s", err, b[1])
			continue
		}
		cfg, err := w.Config(EngineConfig{}, 100)
		if err == nil && len(w.Jobs) == 0 {
			err = fmt.Errorf("no query blocks")
		}
		if err != nil {
			t.Errorf("README workload does not configure: %v\n%s", err, b[1])
			continue
		}
		if _, err := NewEngine(cfg); err != nil {
			t.Errorf("README workload's deployment is rejected: %v\n%s", err, b[1])
		}
	}
	if checked < 2 {
		t.Fatalf("only %d README workload blocks found — the scan is broken", checked)
	}
}
