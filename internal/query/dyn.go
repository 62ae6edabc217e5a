package query

import "fmt"

// CompileDyn compiles the dynamic join clauses a join node evaluates into
// one predicate over the two producers' current readings. A simulated
// sensor samples one reading per cycle, which the query texts name u (and
// v in Query 3): every S.u or S.v reference reads sv, every T.u or T.v
// reference reads tv. References are resolved here, once, so evaluation
// never looks at an attribute name. A clause naming any other attribute is
// rejected, since a join node holds nothing else to bind it to.
//
// The result agrees with f.Eval over a binding that maps u and v to the
// readings. The common single-literal S.u = T.u compiles to a direct
// comparison.
func CompileDyn(f CNF) (func(sv, tv int32) bool, error) {
	if len(f) == 1 && len(f[0]) == 1 && isReadingEquality(f[0][0]) {
		return readingsEqual, nil
	}
	clauses := make([]func(sv, tv int32) bool, len(f))
	for i, c := range f {
		lits := make([]func(sv, tv int32) bool, len(c))
		for j, lit := range c {
			l, err := compileTerm(lit.L)
			if err != nil {
				return nil, err
			}
			r, err := compileTerm(lit.R)
			if err != nil {
				return nil, err
			}
			op := lit.Op
			lits[j] = func(sv, tv int32) bool { return compare(op, l(sv, tv), r(sv, tv)) }
		}
		clauses[i] = anyOf(lits)
	}
	return allOf(clauses), nil
}

func readingsEqual(sv, tv int32) bool { return sv == tv }

// readingAttr returns t as an attribute reference, reporting whether it
// names a sensor's reading.
func readingAttr(t Term) (Attr, bool) {
	a, ok := t.(Attr)
	return a, ok && (a.Attr == "u" || a.Attr == "v")
}

// isReadingEquality reports whether lit equates one relation's reading
// with the other's.
func isReadingEquality(lit Cmp) bool {
	l, okL := readingAttr(lit.L)
	r, okR := readingAttr(lit.R)
	return lit.Op == EQ && okL && okR && l.Rel != r.Rel
}

func anyOf(ps []func(sv, tv int32) bool) func(sv, tv int32) bool {
	if len(ps) == 1 {
		return ps[0]
	}
	return func(sv, tv int32) bool {
		for _, p := range ps {
			if p(sv, tv) {
				return true
			}
		}
		return false
	}
}

func allOf(ps []func(sv, tv int32) bool) func(sv, tv int32) bool {
	if len(ps) == 1 {
		return ps[0]
	}
	return func(sv, tv int32) bool {
		for _, p := range ps {
			if !p(sv, tv) {
				return false
			}
		}
		return true
	}
}

// compileTerm resolves t into a closure over the two readings.
func compileTerm(t Term) (func(sv, tv int32) int32, error) {
	switch v := t.(type) {
	case Const:
		c := int32(v)
		return func(int32, int32) int32 { return c }, nil
	case Attr:
		if _, ok := readingAttr(v); !ok {
			return nil, fmt.Errorf("query: dynamic join clause references %s; a join node binds only the readings u and v", v)
		}
		if v.Rel == S {
			return func(sv, _ int32) int32 { return sv }, nil
		}
		return func(_, tv int32) int32 { return tv }, nil
	case Arith:
		l, err := compileTerm(v.L)
		if err != nil {
			return nil, err
		}
		r, err := compileTerm(v.R)
		if err != nil {
			return nil, err
		}
		op := v.Op
		return func(sv, tv int32) int32 { return arith(op, l(sv, tv), r(sv, tv)) }, nil
	case Abs:
		x, err := compileTerm(v.X)
		if err != nil {
			return nil, err
		}
		return func(sv, tv int32) int32 { return abs32(x(sv, tv)) }, nil
	case Hash:
		x, err := compileTerm(v.X)
		if err != nil {
			return nil, err
		}
		return func(sv, tv int32) int32 { return HashValue(x(sv, tv)) }, nil
	default:
		return nil, fmt.Errorf("query: cannot compile term %s", t)
	}
}
