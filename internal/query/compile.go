package query

import "fmt"

// CompilePair compiles f into one predicate over the keys s and t of an S
// tuple and a T tuple. col resolves every attribute reference, once, to the
// column that reads that attribute from a key: an S reference reads
// col(a)(s), a T reference col(a)(t). Evaluation never looks at an
// attribute name. A static predicate's keys are node ids and its columns
// read node attributes; a join node's keys are the two readings themselves
// (CompileDyn). Compilation fails when col fails.
//
// The result agrees with f.Eval over a binding whose Value(rel, a) is col(a)
// applied to rel's key. The empty CNF compiles to true, an empty clause to
// false.
func CompilePair(f CNF, col func(Attr) (func(int32) int32, error)) (func(s, t int32) bool, error) {
	clauses := make([]func(s, t int32) bool, len(f))
	for i, c := range f {
		lits := make([]func(s, t int32) bool, len(c))
		for j, lit := range c {
			l, err := CompileTerm(lit.L, col)
			if err != nil {
				return nil, err
			}
			r, err := CompileTerm(lit.R, col)
			if err != nil {
				return nil, err
			}
			op := lit.Op
			lits[j] = func(s, t int32) bool { return compare(op, l(s, t), r(s, t)) }
		}
		clauses[i] = anyOf(lits)
	}
	return allOf(clauses), nil
}

// CompileTerm resolves term into a closure over the keys of an S and a T
// tuple, reading attributes through col as CompilePair does.
func CompileTerm(term Term, col func(Attr) (func(int32) int32, error)) (func(s, t int32) int32, error) {
	switch v := term.(type) {
	case Const:
		c := int32(v)
		return func(int32, int32) int32 { return c }, nil
	case Attr:
		read, err := col(v)
		if err != nil {
			return nil, err
		}
		if v.Rel == S {
			return func(s, _ int32) int32 { return read(s) }, nil
		}
		return func(_, t int32) int32 { return read(t) }, nil
	case Arith:
		l, err := CompileTerm(v.L, col)
		if err != nil {
			return nil, err
		}
		r, err := CompileTerm(v.R, col)
		if err != nil {
			return nil, err
		}
		op := v.Op
		return func(s, t int32) int32 { return arith(op, l(s, t), r(s, t)) }, nil
	case Abs:
		x, err := CompileTerm(v.X, col)
		if err != nil {
			return nil, err
		}
		return func(s, t int32) int32 { return abs32(x(s, t)) }, nil
	case Hash:
		x, err := CompileTerm(v.X, col)
		if err != nil {
			return nil, err
		}
		return func(s, t int32) int32 { return HashValue(x(s, t)) }, nil
	default:
		return nil, fmt.Errorf("query: cannot compile term %s", term)
	}
}

// Dyn is a compiled dynamic join predicate over the two producers' current
// readings, tagged with its shape: a join node tests the common shapes
// inline, a whole window at a time, and calls Fn only for the rest.
type Dyn struct {
	Kind DynKind
	// C is AbsDiffGT's threshold.
	C int32
	// Fn is Func's predicate.
	Fn func(sv, tv int32) bool
}

// DynKind is the shape of a Dyn.
type DynKind uint8

const (
	// Func is the general predicate Fn(sv, tv).
	Func DynKind = iota
	// Eq is sv == tv: Queries 0-2's S.u = T.u.
	Eq
	// AbsDiffGT is |sv - tv| > C: Query 3's event condition. It is
	// symmetric in sv and tv, as Eq is.
	AbsDiffGT
)

// Eval reports whether readings sv (of S) and tv (of T) join.
func (d Dyn) Eval(sv, tv int32) bool {
	switch d.Kind {
	case Eq:
		return sv == tv
	case AbsDiffGT:
		return AbsDiff(sv, tv) > d.C
	}
	return d.Fn(sv, tv)
}

// AbsDiff is abs(sv - tv) as a query evaluates it: the difference wraps,
// and abs of the least int32 is itself. It is symmetric in sv and tv.
func AbsDiff(sv, tv int32) int32 { return abs32(sv - tv) }

// CompileDyn compiles the dynamic join clauses a join node evaluates into
// one predicate over the two producers' current readings: CompilePair over
// the reading column. A simulated sensor samples one reading per cycle,
// which the query texts name u (and v in Query 3): every S.u or S.v
// reference reads sv, every T.u or T.v reference reads tv. A clause naming
// any other attribute is rejected, since a join node holds nothing else to
// bind it to.
//
// A single literal S.u = T.u compiles to Eq, and abs(S.v - T.v) > c to
// AbsDiffGT c; anything else to Func.
func CompileDyn(f CNF) (Dyn, error) {
	if len(f) == 1 && len(f[0]) == 1 {
		if lit := f[0][0]; isReadingEquality(lit) {
			return Dyn{Kind: Eq}, nil
		} else if c, ok := absDiffThreshold(lit); ok {
			return Dyn{Kind: AbsDiffGT, C: c}, nil
		}
	}
	fn, err := CompilePair(f, readingColumn)
	if err != nil {
		return Dyn{}, err
	}
	return Dyn{Kind: Func, Fn: fn}, nil
}

// readingColumn resolves a join node's attribute references: u and v read
// the key, which is the reading itself.
func readingColumn(a Attr) (func(int32) int32, error) {
	if !isReading(a) {
		return nil, fmt.Errorf("query: dynamic join clause references %s; a join node binds only the readings u and v", a)
	}
	return identity, nil
}

func identity(v int32) int32 { return v }

func isReading(a Attr) bool { return a.Attr == "u" || a.Attr == "v" }

// isReadingEquality reports whether lit equates one relation's reading
// with the other's.
func isReadingEquality(lit Cmp) bool {
	l, okL := lit.L.(Attr)
	r, okR := lit.R.(Attr)
	return lit.Op == EQ && okL && okR && isReadingPair(l, r)
}

// absDiffThreshold returns c when lit is abs(x - y) > c over one
// relation's reading and the other's, in either order.
func absDiffThreshold(lit Cmp) (int32, bool) {
	a, okA := lit.L.(Abs)
	c, okC := lit.R.(Const)
	if lit.Op != GT || !okA || !okC {
		return 0, false
	}
	d, ok := a.X.(Arith)
	if !ok || d.Op != Sub {
		return 0, false
	}
	l, okL := d.L.(Attr)
	r, okR := d.R.(Attr)
	return int32(c), okL && okR && isReadingPair(l, r)
}

// isReadingPair reports whether l and r are the readings of different
// relations.
func isReadingPair(l, r Attr) bool { return isReading(l) && isReading(r) && l.Rel != r.Rel }

func anyOf(ps []func(s, t int32) bool) func(s, t int32) bool {
	if len(ps) == 1 {
		return ps[0]
	}
	return func(s, t int32) bool {
		for _, p := range ps {
			if p(s, t) {
				return true
			}
		}
		return false
	}
}

func allOf(ps []func(s, t int32) bool) func(s, t int32) bool {
	if len(ps) == 1 {
		return ps[0]
	}
	return func(s, t int32) bool {
		for _, p := range ps {
			if !p(s, t) {
				return false
			}
		}
		return true
	}
}
