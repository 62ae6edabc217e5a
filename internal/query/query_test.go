package query

import (
	"testing"
	"testing/quick"
)

// andAll folds a slice of predicates into a conjunction (True when empty).
func andAll(ps ...Pred) Pred {
	var out Pred = True{}
	for i, p := range ps {
		if i == 0 {
			out = p
		} else {
			out = And{out, p}
		}
	}
	return out
}

func bind(s, t map[string]int32) MapBinding {
	return MapBinding{S: s, T: t}
}

func TestTermEval(t *testing.T) {
	b := bind(map[string]int32{"x": 10, "u": 3}, map[string]int32{"y": 5})
	cases := []struct {
		term Term
		want int32
	}{
		{Const(7), 7},
		{Attr{S, "x"}, 10},
		{Attr{T, "y"}, 5},
		{Arith{Add, Attr{T, "y"}, Const(5)}, 10},
		{Arith{Sub, Attr{S, "x"}, Const(3)}, 7},
		{Arith{Mul, Const(4), Attr{S, "u"}}, 12},
		{Arith{Div, Attr{S, "x"}, Const(3)}, 3},
		{Arith{Div, Attr{S, "x"}, Const(0)}, 0},
		{Arith{Mod, Attr{S, "x"}, Const(4)}, 2},
		{Arith{Mod, Attr{S, "x"}, Const(0)}, 0},
		{Abs{Arith{Sub, Attr{T, "y"}, Attr{S, "x"}}}, 5},
	}
	for _, c := range cases {
		if got := c.term.Eval(b); got != c.want {
			t.Errorf("%s = %d, want %d", c.term, got, c.want)
		}
	}
}

func TestModIsNonNegative(t *testing.T) {
	f := func(v int32, m uint8) bool {
		mod := int32(m%7) + 1
		b := bind(map[string]int32{"x": v}, nil)
		got := Arith{Mod, Attr{S, "x"}, Const(mod)}.Eval(b)
		return got >= 0 && got < mod
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHashDeterministicAndSpread(t *testing.T) {
	if HashValue(42) != HashValue(42) {
		t.Fatal("hash not deterministic")
	}
	buckets := map[int32]int{}
	for v := int32(0); v < 1000; v++ {
		buckets[HashValue(v)%10]++
	}
	for b, n := range buckets {
		if n < 50 || n > 200 {
			t.Fatalf("hash bucket %d has %d/1000 values — badly skewed", b, n)
		}
	}
	for v := int32(-100); v < 100; v++ {
		if HashValue(v) < 0 {
			t.Fatalf("HashValue(%d) negative", v)
		}
	}
}

func TestCmpOperators(t *testing.T) {
	b := bind(map[string]int32{"x": 5}, map[string]int32{"y": 5})
	cases := []struct {
		op   CmpOp
		l, r int32
		want bool
	}{
		{EQ, 5, 5, true}, {EQ, 5, 6, false},
		{NE, 5, 6, true}, {NE, 5, 5, false},
		{LT, 4, 5, true}, {LT, 5, 5, false},
		{LE, 5, 5, true}, {LE, 6, 5, false},
		{GT, 6, 5, true}, {GT, 5, 5, false},
		{GE, 5, 5, true}, {GE, 4, 5, false},
	}
	for _, c := range cases {
		got := Cmp{c.op, Const(c.l), Const(c.r)}.Eval(b)
		if got != c.want {
			t.Errorf("%d %s %d = %v", c.l, cmpNames[c.op], c.r, got)
		}
	}
}

func TestBooleanCombinators(t *testing.T) {
	b := bind(nil, nil)
	tr := Cmp{EQ, Const(1), Const(1)}
	fa := Cmp{EQ, Const(1), Const(2)}
	if !(And{tr, tr}).Eval(b) || (And{tr, fa}).Eval(b) {
		t.Fatal("And")
	}
	if !(Or{fa, tr}).Eval(b) || (Or{fa, fa}).Eval(b) {
		t.Fatal("Or")
	}
	if (Not{tr}).Eval(b) || !(Not{fa}).Eval(b) {
		t.Fatal("Not")
	}
	if !(True{}).Eval(b) {
		t.Fatal("True")
	}
}

func TestUnboundAttrPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unbound attribute did not panic")
		}
	}()
	Attr{S, "nope"}.Eval(bind(map[string]int32{}, nil))
}

// cnfEquivalent checks p and ToCNF(p) agree on a set of random bindings.
func cnfEquivalent(t *testing.T, p Pred) {
	t.Helper()
	f := ToCNF(p)
	vals := []int32{-7, -1, 0, 1, 2, 3, 5, 25, 50, 51}
	for _, x := range vals {
		for _, y := range vals {
			b := bind(map[string]int32{"x": x, "id": x, "u": y}, map[string]int32{"y": y, "id": y, "u": x})
			if p.Eval(b) != f.Eval(b) {
				t.Fatalf("CNF not equivalent at x=%d y=%d: %s vs CNF %v", x, y, p, f)
			}
		}
	}
}

func TestToCNFEquivalence(t *testing.T) {
	sx := Attr{S, "x"}
	ty := Attr{T, "y"}
	preds := []Pred{
		Cmp{EQ, sx, ty},
		And{Cmp{LT, Attr{S, "id"}, Const(25)}, Cmp{GT, Attr{T, "id"}, Const(50)}},
		Or{Cmp{EQ, sx, ty}, Cmp{EQ, sx, Const(0)}},
		Not{Or{Cmp{EQ, sx, ty}, Cmp{LT, sx, Const(0)}}},
		Not{And{Cmp{EQ, sx, ty}, Cmp{LT, sx, Const(0)}}},
		Or{And{Cmp{EQ, sx, Const(1)}, Cmp{EQ, ty, Const(2)}}, And{Cmp{EQ, sx, Const(3)}, Cmp{EQ, ty, Const(4)}}},
		Not{Not{Cmp{EQ, sx, ty}}},
		True{},
		Not{True{}},
		andAll(Cmp{LT, sx, Const(10)}, Cmp{GT, ty, Const(0)}, Or{Cmp{EQ, sx, ty}, Not{Cmp{LE, sx, Const(5)}}}),
	}
	for _, p := range preds {
		cnfEquivalent(t, p)
	}
}

func TestToCNFShape(t *testing.T) {
	// (a=1 AND b=2) OR (c=3) must distribute into 2 clauses.
	p := Or{
		And{Cmp{EQ, Attr{S, "x"}, Const(1)}, Cmp{EQ, Attr{S, "y"}, Const(2)}},
		Cmp{EQ, Attr{T, "y"}, Const(3)},
	}
	f := ToCNF(p)
	if len(f) != 2 {
		t.Fatalf("CNF has %d clauses, want 2: %v", len(f), f)
	}
	for _, c := range f {
		if len(c) != 2 {
			t.Fatalf("clause has %d literals, want 2: %v", len(c), c)
		}
	}
}

func TestToCNFTrueFalse(t *testing.T) {
	if f := ToCNF(True{}); len(f) != 0 {
		t.Fatalf("CNF(TRUE) = %v, want empty conjunction", f)
	}
	f := ToCNF(Not{True{}})
	if len(f) != 1 || len(f[0]) != 0 {
		t.Fatalf("CNF(FALSE) = %v, want one empty clause", f)
	}
	if f.Eval(bind(nil, nil)) {
		t.Fatal("FALSE CNF evaluated true")
	}
}

func TestClassify(t *testing.T) {
	schema := DefaultSchema()
	// Query 1's predicate structure (Table 2).
	p := andAll(
		Cmp{LT, Attr{S, "id"}, Const(25)},                           // static sel S
		Cmp{EQ, Arith{Mod, Hash{Attr{S, "u"}}, Const(2)}, Const(0)}, // dynamic sel S
		Cmp{GT, Attr{T, "id"}, Const(50)},                           // static sel T
		Cmp{EQ, Arith{Mod, Hash{Attr{T, "u"}}, Const(2)}, Const(0)}, // dynamic sel T
		Cmp{EQ, Attr{S, "x"}, Arith{Add, Attr{T, "y"}, Const(5)}},   // static join
		Cmp{EQ, Attr{S, "u"}, Attr{T, "u"}},                         // dynamic join
	)
	parts := Classify(ToCNF(p), schema)
	if len(parts.SelS) != 1 || len(parts.SelT) != 1 {
		t.Fatalf("static selections: %d S, %d T", len(parts.SelS), len(parts.SelT))
	}
	if len(parts.DynSelS) != 1 || len(parts.DynSelT) != 1 {
		t.Fatalf("dynamic selections: %d S, %d T", len(parts.DynSelS), len(parts.DynSelT))
	}
	if len(parts.JoinStatic) != 1 {
		t.Fatalf("static joins: %d", len(parts.JoinStatic))
	}
	if len(parts.JoinDynamic) != 1 {
		t.Fatalf("dynamic joins: %d", len(parts.JoinDynamic))
	}
}

func TestMatchRoutableDirect(t *testing.T) {
	schema := DefaultSchema()
	f := ToCNF(Cmp{EQ, Attr{S, "cid"}, Attr{T, "cid"}})
	parts := Classify(f, schema)
	primary, secondary := MatchRoutable(parts.JoinStatic, schema)
	if len(primary) != 1 || len(secondary) != 0 {
		t.Fatalf("primary=%d secondary=%d", len(primary), len(secondary))
	}
	r := primary[0]
	if r.TargetAttr != "cid" {
		t.Fatalf("TargetAttr = %s", r.TargetAttr)
	}
	b := bind(map[string]int32{"cid": 3}, nil)
	if r.SourceTerm.Eval(b) != 3 {
		t.Fatal("SourceTerm should be S.cid")
	}
}

func TestMatchRoutableInvertsArithmetic(t *testing.T) {
	schema := DefaultSchema()
	// Query 1: S.x = T.y + 5  =>  route on T.y with key S.x - 5.
	f := ToCNF(Cmp{EQ, Attr{S, "x"}, Arith{Add, Attr{T, "y"}, Const(5)}})
	primary, secondary := MatchRoutable(Classify(f, schema).JoinStatic, schema)
	if len(primary) != 1 || len(secondary) != 0 {
		t.Fatalf("primary=%d secondary=%d", len(primary), len(secondary))
	}
	r := primary[0]
	if r.TargetAttr != "y" {
		t.Fatalf("TargetAttr = %s, want y", r.TargetAttr)
	}
	key := r.SourceTerm.Eval(bind(map[string]int32{"x": 12}, nil))
	if key != 7 {
		t.Fatalf("key = %d, want 7 (12-5)", key)
	}
}

func TestMatchRoutableInversionVariants(t *testing.T) {
	schema := DefaultSchema()
	cases := []struct {
		pred    Pred
		sAttrs  map[string]int32
		wantKey int32
	}{
		// T.y - 3 = S.x with S.x=4  =>  T.y = 7
		{Cmp{EQ, Arith{Sub, Attr{T, "y"}, Const(3)}, Attr{S, "x"}}, map[string]int32{"x": 4}, 7},
		// 10 - T.y = S.x with S.x=4  =>  T.y = 6
		{Cmp{EQ, Arith{Sub, Const(10), Attr{T, "y"}}, Attr{S, "x"}}, map[string]int32{"x": 4}, 6},
		// 5 + T.y = S.x with S.x=9  =>  T.y = 4
		{Cmp{EQ, Arith{Add, Const(5), Attr{T, "y"}}, Attr{S, "x"}}, map[string]int32{"x": 9}, 4},
	}
	for i, c := range cases {
		primary, _ := MatchRoutable(Classify(ToCNF(c.pred), schema).JoinStatic, schema)
		if len(primary) != 1 {
			t.Fatalf("case %d: not routable: %s", i, c.pred)
		}
		got := primary[0].SourceTerm.Eval(bind(c.sAttrs, nil))
		if got != c.wantKey {
			t.Fatalf("case %d: key = %d, want %d", i, got, c.wantKey)
		}
	}
}

func TestMatchRoutableRejectsSecondary(t *testing.T) {
	schema := DefaultSchema()
	// S.id % 4 = T.id % 4 (Query 2) is static but not invertible to a
	// unique target value — must stay secondary.
	f := ToCNF(Cmp{EQ,
		Arith{Mod, Attr{S, "id"}, Const(4)},
		Arith{Mod, Attr{T, "id"}, Const(4)}})
	primary, secondary := MatchRoutable(Classify(f, schema).JoinStatic, schema)
	if len(primary) != 0 || len(secondary) != 1 {
		t.Fatalf("mod clause classified as routable")
	}
	// Inequality joins are not routable.
	f2 := ToCNF(Cmp{LT, Attr{S, "id"}, Attr{T, "id"}})
	primary2, _ := MatchRoutable(Classify(f2, schema).JoinStatic, schema)
	if len(primary2) != 0 {
		t.Fatal("inequality classified as routable")
	}
	// Dynamic-attribute equality never reaches the matcher (classified as
	// dynamic join), but if handed over it must be rejected.
	p3, _ := MatchRoutable(CNF{Clause{Cmp{EQ, Attr{S, "u"}, Attr{T, "u"}}}}, schema)
	if len(p3) != 0 {
		t.Fatal("dynamic equality classified as routable")
	}
}

func TestQuery2FullPipeline(t *testing.T) {
	schema := DefaultSchema()
	// Query 2 (Table 2): perimeter join.
	p := andAll(
		Cmp{EQ, Attr{S, "rid"}, Const(0)},
		Cmp{EQ, Attr{T, "rid"}, Const(3)},
		Cmp{EQ, Attr{S, "cid"}, Attr{T, "cid"}},
		Cmp{EQ, Arith{Mod, Attr{S, "id"}, Const(4)}, Arith{Mod, Attr{T, "id"}, Const(4)}},
		Cmp{EQ, Attr{S, "u"}, Attr{T, "u"}},
	)
	parts := Classify(ToCNF(p), schema)
	primary, secondary := MatchRoutable(parts.JoinStatic, schema)
	if len(primary) != 1 || primary[0].TargetAttr != "cid" {
		t.Fatalf("Query 2 primary = %+v", primary)
	}
	if len(secondary) != 1 {
		t.Fatalf("Query 2 secondary = %v", secondary)
	}
	if len(parts.JoinDynamic) != 1 {
		t.Fatalf("Query 2 dynamic join = %v", parts.JoinDynamic)
	}
	// End-to-end semantics: matching pair.
	b := bind(
		map[string]int32{"rid": 0, "cid": 2, "id": 5, "u": 9},
		map[string]int32{"rid": 3, "cid": 2, "id": 9, "u": 9},
	)
	if !p.Eval(b) {
		t.Fatal("matching pair rejected")
	}
	// cid mismatch.
	b2 := bind(
		map[string]int32{"rid": 0, "cid": 2, "id": 5, "u": 9},
		map[string]int32{"rid": 3, "cid": 1, "id": 9, "u": 9},
	)
	if p.Eval(b2) {
		t.Fatal("cid mismatch accepted")
	}
}

func TestSchema(t *testing.T) {
	s := DefaultSchema()
	if s.NumAttrs() != 28 {
		t.Fatalf("schema has %d attributes, want 28", s.NumAttrs())
	}
	if !s.IsStatic("id") || !s.IsStatic("cid") || !s.IsStatic("posx") {
		t.Fatal("identifier attributes must be static")
	}
	if s.IsStatic("u") || s.IsStatic("v") || s.IsStatic("humidity") {
		t.Fatal("readings must be dynamic")
	}
	if !s.Has("temperature") || s.Has("nonexistent") {
		t.Fatal("Has misbehaves")
	}
}

func TestPredStrings(t *testing.T) {
	p := And{
		Or{Cmp{EQ, Attr{S, "x"}, Const(1)}, Not{Cmp{LT, Attr{T, "y"}, Const(2)}}},
		Cmp{NE, Hash{Attr{S, "u"}}, Abs{Attr{T, "u"}}},
	}
	s := p.String()
	if s == "" {
		t.Fatal("empty String()")
	}
	for _, want := range []string{"S.x", "T.y", "hash(", "abs(", "AND", "OR", "NOT"} {
		if !contains(s, want) {
			t.Fatalf("String() %q missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
