package query_test

import (
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"

	"repro/internal/bench"
	"repro/internal/query"
	"repro/internal/workload"
)

// seedQueries returns every query text the repository ships: the SQL
// literals in examples/, the engine scenarios' pool and the Table 2 texts.
// The hand-written edge cases live in testdata/fuzz.
func seedQueries(f *testing.F) []string {
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "*", "*.go"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no example sources found: %v", err)
	}
	literal := regexp.MustCompile("`\\s*(SELECT[^`]*)`")
	var out []string
	for _, name := range files {
		src, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		for _, m := range literal.FindAllStringSubmatch(string(src), -1) {
			out = append(out, m[1])
		}
	}
	out = append(out, bench.EngineSQL...)
	for _, name := range []string{"Q0", "Q1", "Q2", "Q3"} {
		text, _ := workload.QueryText(name)
		out = append(out, text)
	}
	return out
}

// FuzzCompile: Compile never panics on any text, and an accepted query's
// CNF, printed and compiled again, is the same CNF.
func FuzzCompile(f *testing.F) {
	for _, src := range seedQueries(f) {
		f.Add(src)
	}
	schema := query.DefaultSchema()
	f.Fuzz(func(t *testing.T, src string) {
		c, err := query.Compile(src, schema)
		if err != nil {
			return
		}
		cnf := query.ToCNF(c.Where)
		text := "SELECT S.id FROM S, T"
		if len(cnf) > 0 {
			text += " WHERE " + cnf.String()
		}
		again, err := query.Compile(text, schema)
		if err != nil {
			t.Fatalf("printed CNF %q does not compile: %v", text, err)
		}
		if got := query.ToCNF(again.Where); !reflect.DeepEqual(got, cnf) {
			t.Fatalf("CNF %s printed as %q recompiles to %s", cnf, text, got)
		}
	})
}

// FuzzCompileDyn: whenever CompileDyn accepts a query's dynamic join (or
// its whole predicate), the compiled closure agrees with the interpreter
// over a binding of the two readings.
func FuzzCompileDyn(f *testing.F) {
	for _, src := range seedQueries(f) {
		f.Add(src, int32(7), int32(7))
		f.Add(src, int32(-1000), int32(1))
	}
	schema := query.DefaultSchema()
	f.Fuzz(func(t *testing.T, src string, sv, tv int32) {
		c, err := query.Compile(src, schema)
		if err != nil {
			return
		}
		b := query.MapBinding{query.S: {"u": sv, "v": sv}, query.T: {"u": tv, "v": tv}}
		for _, cnf := range []query.CNF{c.Parts.JoinDynamic, query.ToCNF(c.Where)} {
			dyn, err := query.CompileDyn(cnf)
			if err != nil {
				continue
			}
			if got, want := dyn(sv, tv), cnf.Eval(b); got != want {
				t.Fatalf("%s at (%d, %d): compiled %v, Eval %v", cnf, sv, tv, got, want)
			}
		}
	})
}
