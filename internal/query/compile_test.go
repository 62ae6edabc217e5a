package query

import (
	"fmt"
	"strings"
	"testing"
)

func TestCompileDyn(t *testing.T) {
	schema := DefaultSchema()
	dynOf := func(t *testing.T, where string) CNF {
		t.Helper()
		c, err := Compile("SELECT S.id FROM S, T WHERE S.x = T.y AND ("+where+")", schema)
		if err != nil {
			t.Fatal(err)
		}
		return c.Parts.JoinDynamic
	}
	for _, c := range []struct {
		where string
		want  Dyn
	}{
		{"S.u = T.u", Dyn{Kind: Eq}},
		{"T.v = S.u", Dyn{Kind: Eq}},
		{"abs(S.v - T.v) > 1000", Dyn{Kind: AbsDiffGT, C: 1000}},
		{"abs(T.u - S.v) > 3", Dyn{Kind: AbsDiffGT, C: 3}},
	} {
		f, err := CompileDyn(dynOf(t, c.where))
		if err != nil {
			t.Fatal(err)
		}
		if f.Kind != c.want.Kind || f.C != c.want.C || f.Fn != nil {
			t.Errorf("%s: compiled to %+v, want %+v", c.where, f, c.want)
		}
	}
	for _, c := range []struct {
		where  string
		sv, tv int32
		want   bool
	}{
		{"abs(S.v - T.v) > 1000", 0, 1001, true},
		{"abs(S.v - T.v) > 1000", 0, 1000, false},
		{"abs(S.v - T.v) > 1000", -2147483648, 0, false},
		{"S.u < T.u OR S.u % 0 = T.u", 5, 0, true},
		{"S.u * 2 = T.u AND hash(S.u) != hash(T.u)", 3, 6, true},
		{"NOT (S.u / 2 = T.u)", 9, 4, false},
	} {
		f, err := CompileDyn(dynOf(t, c.where))
		if err != nil {
			t.Fatalf("%s: %v", c.where, err)
		}
		if got := f.Eval(c.sv, c.tv); got != c.want {
			t.Errorf("%s at (%d, %d) = %v, want %v", c.where, c.sv, c.tv, got, c.want)
		}
	}
	if f, err := CompileDyn(nil); err != nil || f.Kind != Func || !f.Eval(1, 2) {
		t.Fatalf("empty CNF: err %v; want an always-true predicate", err)
	}
	// One reading per sensor: S.u and S.v are the same value.
	if f, err := CompileDyn(CNF{{Cmp{EQ, Attr{S, "u"}, Attr{S, "v"}}}}); err != nil || f.Kind != Func || !f.Eval(3, 4) {
		t.Fatalf("S.u = S.v at (3, 4): err %v; want true", err)
	}
	if f, err := CompileDyn(CNF{{Cmp{GT, Abs{Arith{Sub, Attr{S, "u"}, Attr{S, "v"}}}, Const(1)}}}); err != nil || f.Kind != Func || f.Eval(3, 40) {
		t.Fatalf("abs(S.u - S.v) > 1 at (3, 40): err %v; want a general predicate, false", err)
	}
	for _, where := range []string{"S.temperature = T.temperature", "S.u = T.id", "S.u = T.u OR S.light > 3"} {
		_, err := CompileDyn(dynOf(t, where))
		if err == nil || !strings.Contains(err.Error(), "binds only the readings") {
			t.Errorf("%s: err = %v, want a rejection", where, err)
		}
	}
}

// TestCompilePairColumns: S references read the s key and T references the
// t key through the column col resolved; a failing column fails compilation,
// and an empty clause is unsatisfiable.
func TestCompilePairColumns(t *testing.T) {
	tens := func(k int32) int32 { return 10 * k }
	col := func(a Attr) (func(int32) int32, error) {
		if a.Attr != "x" {
			return nil, fmt.Errorf("no column %s", a)
		}
		return tens, nil
	}
	f := CNF{{Cmp{EQ, Attr{S, "x"}, Arith{Add, Attr{T, "x"}, Const(20)}}}}
	p, err := CompilePair(f, col)
	if err != nil {
		t.Fatal(err)
	}
	if !p(5, 3) || p(3, 5) {
		t.Fatalf("S.x = T.x + 20 over x = 10k: (5, 3) %v, (3, 5) %v", p(5, 3), p(3, 5))
	}
	if _, err := CompilePair(CNF{{Cmp{LT, Attr{S, "x"}, Attr{T, "y"}}}}, col); err == nil || !strings.Contains(err.Error(), "no column T.y") {
		t.Fatalf("err = %v, want the column's error", err)
	}
	if p, err := CompilePair(CNF{{}}, col); err != nil || p(1, 1) {
		t.Fatalf("empty clause: err %v; want an always-false predicate", err)
	}
}
