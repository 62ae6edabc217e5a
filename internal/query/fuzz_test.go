package query_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"

	"repro/internal/bench"
	"repro/internal/query"
	"repro/internal/topology"
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
// its whole predicate), the tagged predicate agrees with CompilePair's
// general closure over the reading column and with the interpreter over a
// binding of the two readings.
func FuzzCompileDyn(f *testing.F) {
	for _, src := range seedQueries(f) {
		f.Add(src, int32(7), int32(7))
		f.Add(src, int32(-1000), int32(1))
	}
	f.Add("SELECT S.id FROM S, T WHERE S.id < T.id AND abs(T.v - S.u) > 5", int32(-2147483648), int32(3))
	schema := query.DefaultSchema()
	readings := func(a query.Attr) (func(int32) int32, error) {
		if a.Attr != "u" && a.Attr != "v" {
			return nil, fmt.Errorf("not a reading: %s", a)
		}
		return func(v int32) int32 { return v }, nil
	}
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
			general, err := query.CompilePair(cnf, readings)
			if err != nil {
				t.Fatalf("%s: CompileDyn accepts it, CompilePair over the readings fails: %v", cnf, err)
			}
			got, closure, want := dyn.Eval(sv, tv), general(sv, tv), cnf.Eval(b)
			if got != closure || got != want {
				t.Fatalf("%s at (%d, %d): tagged %v (kind %d), general closure %v, Eval %v", cnf, sv, tv, got, dyn.Kind, closure, want)
			}
		}
	})
}

// FuzzCompilePair: a query's static selections and static join clauses,
// compiled over the node-attribute columns, agree with the interpreter
// over the same two nodes. Compilation fails only on an attribute no node
// carries.
func FuzzCompilePair(f *testing.F) {
	for _, src := range seedQueries(f) {
		f.Add(src, uint16(3), uint16(3))
		f.Add(src, uint16(17), uint16(64))
	}
	topo := topology.Generate(topology.ModerateRandom, 100, 1)
	nodes := workload.BuildNodes(topo, 1)
	col := workload.NodeColumns(topo, nodes)
	schema := query.DefaultSchema()
	f.Fuzz(func(t *testing.T, src string, s, tt uint16) {
		c, err := query.Compile(src, schema)
		if err != nil {
			return
		}
		si, ti := int32(s)%int32(len(nodes)), int32(tt)%int32(len(nodes))
		b := workload.PairBinding{Topo: topo, Nodes: nodes, S: topology.NodeID(si), T: topology.NodeID(ti)}
		for _, cnf := range []query.CNF{c.Parts.SelS, c.Parts.SelT, c.Parts.JoinStatic} {
			pred, err := query.CompilePair(cnf, col)
			if err != nil {
				if carried(cnf, col) {
					t.Fatalf("%s: %v, though every attribute it names is a node's", cnf, err)
				}
				continue
			}
			if got, want := pred(si, ti), cnf.Eval(b); got != want {
				t.Fatalf("%s at nodes (%d, %d): compiled %v, Eval %v", cnf, si, ti, got, want)
			}
		}
	})
}

// carried reports whether col resolves every attribute f references.
func carried(f query.CNF, col func(query.Attr) (func(int32) int32, error)) bool {
	for _, c := range f {
		//aspen:orderinvariant boolean fold over the clause's references
		for ref := range c.Refs() {
			if _, err := col(query.Attr{Rel: ref.Rel, Attr: ref.Attr}); err != nil {
				return false
			}
		}
	}
	return true
}
