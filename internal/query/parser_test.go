package query

import (
	"strings"
	"testing"
)

// appendixBQuery is the exact query text of Appendix B (Query 1).
const appendixBQuery = `
SELECT S.id, T.id, S.local_time
FROM S, T [windowsize=3 sampleinterval=100]
WHERE S.id < 25 AND hash(S.u) % 2 = 0
AND T.id > 50 AND hash(T.u) % 2 = 0
AND S.x = T.y + 5 AND S.u = T.u`

func TestParseAppendixBQuery(t *testing.T) {
	st, err := Parse(appendixBQuery, DefaultSchema())
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Select) != 3 {
		t.Fatalf("projected %d attrs, want 3", len(st.Select))
	}
	if st.Select[0] != (AttrRef{S, "id"}) || st.Select[1] != (AttrRef{T, "id"}) {
		t.Fatalf("projection = %v", st.Select)
	}
	if st.WindowSize != 3 || st.SampleInterval != 100 {
		t.Fatalf("options = w%d si%d", st.WindowSize, st.SampleInterval)
	}
	// Semantics: a matching binding.
	b := MapBinding{
		S: {"id": 10, "x": 12, "u": 4},
		T: {"id": 60, "y": 7, "u": 4},
	}
	// hash(4)%2 must be 0 for this binding to pass; pick u accordingly.
	if HashValue(4)%2 != 0 {
		b[S]["u"], b[T]["u"] = 5, 5
		if HashValue(5)%2 != 0 {
			b[S]["u"], b[T]["u"] = 6, 6
		}
	}
	if !st.Where.Eval(b) {
		t.Fatalf("matching binding rejected by parsed predicate %s", st.Where)
	}
	b[T]["y"] = 9 // now S.x != T.y+5
	if st.Where.Eval(b) {
		t.Fatal("non-matching binding accepted")
	}
}

func TestCompileAppendixBQuery(t *testing.T) {
	c, err := Compile(appendixBQuery, DefaultSchema())
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Parts.SelS) != 1 || len(c.Parts.SelT) != 1 {
		t.Fatalf("static selections %d/%d, want 1/1", len(c.Parts.SelS), len(c.Parts.SelT))
	}
	if len(c.Parts.DynSelS) != 1 || len(c.Parts.DynSelT) != 1 {
		t.Fatal("dynamic selections missing")
	}
	if len(c.Parts.JoinDynamic) != 1 {
		t.Fatal("dynamic join clause missing")
	}
	if len(c.Primary) != 1 || c.Primary[0].TargetAttr != "y" {
		t.Fatalf("primary routable = %+v", c.Primary)
	}
	if len(c.Secondary) != 0 {
		t.Fatalf("unexpected secondary clauses: %v", c.Secondary)
	}
	// The routing key for a node with x=12 is 7.
	key := c.Primary[0].SourceTerm.Eval(MapBinding{S: {"x": 12}})
	if key != 7 {
		t.Fatalf("routing key = %d, want 7", key)
	}
}

func TestParseQuery2Text(t *testing.T) {
	src := `SELECT S.id, T.id FROM S, T [windowsize=1]
		WHERE S.rid = 0 AND T.rid = 3
		AND S.cid = T.cid AND S.id % 4 = T.id % 4 AND S.u = T.u`
	c, err := Compile(src, DefaultSchema())
	if err != nil {
		t.Fatal(err)
	}
	if c.WindowSize != 1 {
		t.Fatal("windowsize")
	}
	if len(c.Primary) != 1 || c.Primary[0].TargetAttr != "cid" {
		t.Fatalf("primary = %+v", c.Primary)
	}
	if len(c.Secondary) != 1 {
		t.Fatalf("secondary = %v (id%%4 clause must be secondary)", c.Secondary)
	}
}

func TestParseDefaults(t *testing.T) {
	st, err := Parse("SELECT S.id FROM S, T", DefaultSchema())
	if err != nil {
		t.Fatal(err)
	}
	if st.WindowSize != 1 || st.SampleInterval != 100 {
		t.Fatalf("defaults = %d/%d", st.WindowSize, st.SampleInterval)
	}
	if !st.Where.Eval(MapBinding{}) {
		t.Fatal("missing WHERE must be TRUE")
	}
}

func TestParseBooleanStructure(t *testing.T) {
	st, err := Parse(`SELECT S.id FROM S, T WHERE
		(S.id = 1 OR S.id = 2) AND NOT T.id = 3`, DefaultSchema())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		sid, tid int32
		want     bool
	}{
		{1, 5, true}, {2, 5, true}, {3, 5, false}, {1, 3, false},
	}
	for _, c := range cases {
		b := MapBinding{S: {"id": c.sid}, T: {"id": c.tid}}
		if got := st.Where.Eval(b); got != c.want {
			t.Errorf("S.id=%d T.id=%d: got %v", c.sid, c.tid, got)
		}
	}
}

func TestParseArithmeticPrecedence(t *testing.T) {
	st, err := Parse("SELECT S.id FROM S, T WHERE S.id + 2 * 3 = 7", DefaultSchema())
	if err != nil {
		t.Fatal(err)
	}
	if !st.Where.Eval(MapBinding{S: {"id": 1}}) {
		t.Fatal("precedence: 1 + 2*3 should equal 7")
	}
	st2, err := Parse("SELECT S.id FROM S, T WHERE (S.id + 2) * 3 = 9", DefaultSchema())
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Where.Eval(MapBinding{S: {"id": 1}}) {
		t.Fatal("parenthesized arithmetic: (1+2)*3 should equal 9")
	}
}

func TestParseUnaryMinus(t *testing.T) {
	st, err := Parse("SELECT S.id FROM S, T WHERE S.id = -5", DefaultSchema())
	if err != nil {
		t.Fatal(err)
	}
	if !st.Where.Eval(MapBinding{S: {"id": -5}}) {
		t.Fatal("unary minus")
	}
}

func TestParseFunctions(t *testing.T) {
	st, err := Parse("SELECT S.id FROM S, T WHERE abs(S.u - T.u) > 1000", DefaultSchema())
	if err != nil {
		t.Fatal(err)
	}
	if !st.Where.Eval(MapBinding{S: {"u": 3000}, T: {"u": 1000}}) {
		t.Fatal("abs predicate rejected |2000| > 1000")
	}
	if st.Where.Eval(MapBinding{S: {"u": 1500}, T: {"u": 1000}}) {
		t.Fatal("abs predicate accepted |500| > 1000")
	}
}

func TestParseComparisonOperators(t *testing.T) {
	for _, c := range []struct {
		op   string
		want bool // for S.id=5 vs 5
	}{{"=", true}, {"!=", false}, {"<>", false}, {"<", false}, {"<=", true}, {">", false}, {">=", true}} {
		st, err := Parse("SELECT S.id FROM S, T WHERE S.id "+c.op+" 5", DefaultSchema())
		if err != nil {
			t.Fatalf("%s: %v", c.op, err)
		}
		if got := st.Where.Eval(MapBinding{S: {"id": 5}}); got != c.want {
			t.Errorf("5 %s 5 = %v, want %v", c.op, got, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	schema := DefaultSchema()
	cases := []struct {
		src, wantErr string
	}{
		{"", "expected SELECT"},
		{"SELECT FROM S, T", "relation (S or T)"},
		{"SELECT S.id FROM S", "','"},
		{"SELECT S.id FROM R, T", "must name the sensor relations"},
		{"SELECT S.id FROM S, T WHERE", "expected a value"},
		{"SELECT S.id FROM S, T WHERE S.id", "comparison operator"},
		{"SELECT S.id FROM S, T WHERE S.id = ", "expected a value"},
		{"SELECT S.nope FROM S, T", "unknown attribute"},
		{"SELECT Q.id FROM S, T", "unknown relation"},
		{"SELECT S.id FROM S, T WHERE frob(S.u) = 1", "unknown function"},
		{"SELECT S.id FROM S, T [windowsize=0]", "invalid option value"},
		{"SELECT S.id FROM S, T [bogus=3]", "unknown option"},
		{"SELECT S.id FROM S, T [windowsize=3", "unterminated options"},
		{"SELECT S.id FROM S, T WHERE S.id = 99999999999", "out of 32-bit range"},
		{"SELECT S.id FROM S, T WHERE S.id = 1 extra", "trailing input"},
		{"SELECT S.id FROM S, T WHERE S.id = 1 ⊕ 2", "unexpected character"},
	}
	for _, c := range cases {
		_, err := Parse(c.src, schema)
		if err == nil {
			t.Errorf("%q: no error, want %q", c.src, c.wantErr)
			continue
		}
		if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%q: error %q, want containing %q", c.src, err, c.wantErr)
		}
	}
}

func TestParseParenthesizedPredicateVsTerm(t *testing.T) {
	// '(' ambiguity: both forms must parse.
	a, err := Parse("SELECT S.id FROM S, T WHERE (S.id = 1 OR T.id = 2)", DefaultSchema())
	if err != nil {
		t.Fatal(err)
	}
	if !a.Where.Eval(MapBinding{S: {"id": 1}, T: {"id": 9}}) {
		t.Fatal("paren predicate semantics")
	}
	b, err := Parse("SELECT S.id FROM S, T WHERE (S.id + 1) = 2", DefaultSchema())
	if err != nil {
		t.Fatal(err)
	}
	if !b.Where.Eval(MapBinding{S: {"id": 1}}) {
		t.Fatal("paren term semantics")
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	st, err := Parse("select S.id from S, T where S.id = 1 and T.id = 2", DefaultSchema())
	if err != nil {
		t.Fatal(err)
	}
	if !st.Where.Eval(MapBinding{S: {"id": 1}, T: {"id": 2}}) {
		t.Fatal("lowercase keywords")
	}
}

// TestCompileBoundsCNFBlowUp: distributing OR over AND is exponential, so
// a short text could otherwise expand to more literals than memory holds.
func TestCompileBoundsCNFBlowUp(t *testing.T) {
	text := func(disjuncts int) string {
		terms := make([]string, disjuncts)
		for i := range terms {
			terms[i] = "(S.id = 1 AND T.id = 2)"
		}
		return "SELECT S.id FROM S, T WHERE " + strings.Join(terms, " OR ")
	}
	c, err := Compile(text(8), DefaultSchema()) // 256 clauses of 8 literals
	if err != nil {
		t.Fatal(err)
	}
	if got := len(c.Parts.SelS) + len(c.Parts.SelT) + len(c.Parts.JoinStatic); got != 256 {
		t.Fatalf("8 disjuncts compiled to %d clauses, want 256", got)
	}
	if _, err := Compile(text(16), DefaultSchema()); err == nil || !strings.Contains(err.Error(), "literals") {
		t.Fatalf("65536 clauses of 16 literals: err = %v, want the literal bound", err)
	}
}

func TestCompileRoundTripsThroughCNF(t *testing.T) {
	// The compiled CNF must be semantically equivalent to the parsed
	// predicate on a grid of bindings.
	src := `SELECT S.id FROM S, T WHERE
		(S.id < 25 OR NOT T.id > 50) AND S.x = T.y + 5`
	st, err := Parse(src, DefaultSchema())
	if err != nil {
		t.Fatal(err)
	}
	f := ToCNF(st.Where)
	for sid := int32(20); sid <= 30; sid += 5 {
		for tid := int32(45); tid <= 55; tid += 5 {
			for x := int32(10); x <= 14; x += 2 {
				b := MapBinding{S: {"id": sid, "x": x}, T: {"id": tid, "y": x - 5}}
				if st.Where.Eval(b) != f.Eval(b) {
					t.Fatalf("CNF mismatch at sid=%d tid=%d x=%d", sid, tid, x)
				}
			}
		}
	}
}
