package query

// Clause is a disjunction of comparison literals; a query in CNF is a
// conjunction of clauses. A literal is always a Cmp — Not is eliminated by
// operator complementation during normalization.
type Clause []Cmp

// Eval evaluates the disjunction.
func (c Clause) Eval(b Binding) bool {
	for _, lit := range c {
		if lit.Eval(b) {
			return true
		}
	}
	return false
}

// Refs returns all attributes referenced by any literal.
func (c Clause) Refs() map[AttrRef]bool {
	set := map[AttrRef]bool{}
	for _, lit := range c {
		lit.L.refs(set)
		lit.R.refs(set)
	}
	return set
}

// String renders the clause as a disjunction.
func (c Clause) String() string {
	if len(c) == 0 {
		return "FALSE"
	}
	s := c[0].String()
	for _, lit := range c[1:] {
		s += " OR " + lit.String()
	}
	return s
}

// CNF is a conjunction of clauses.
type CNF []Clause

// Eval evaluates the conjunction.
func (f CNF) Eval(b Binding) bool {
	for _, c := range f {
		if !c.Eval(b) {
			return false
		}
	}
	return true
}

// String renders the conjunction with every clause parenthesized, in a
// form Parse reads back to the same CNF.
func (f CNF) String() string {
	if len(f) == 0 {
		return "TRUE"
	}
	s := "(" + f[0].String() + ")"
	for _, c := range f[1:] {
		s += " AND (" + c.String() + ")"
	}
	return s
}

// ToCNF converts p to conjunctive normal form: negations are pushed to the
// leaves (flipping comparison operators), then disjunctions are distributed
// over conjunctions. Query predicates are small (Appendix B), so the
// potential exponential blow-up is not a concern in practice; the paper
// performs the same conversion at the base station before dissemination.
// Compile, which takes query text from outside, bounds the blow-up with
// maxCNFLiterals first.
func ToCNF(p Pred) CNF {
	return distribute(pushNot(p, false))
}

// maxCNFLiterals bounds the literals a compiled query's CNF may hold: far
// above any real query, far below what exhausts memory.
const maxCNFLiterals = 1 << 14

// cnfSize returns the clause and literal counts distribute(n) would
// produce, both capped just above maxCNFLiterals so the products cannot
// overflow.
func cnfSize(n nnf) (clauses, literals int) {
	const limit = maxCNFLiterals + 1
	switch v := n.(type) {
	case nTrue:
		return 0, 0
	case nFalse:
		return 1, 0
	case nLit:
		return 1, 1
	case nAnd:
		lc, ll := cnfSize(v.l)
		rc, rl := cnfSize(v.r)
		return min(lc+rc, limit), min(ll+rl, limit)
	case nOr:
		lc, ll := cnfSize(v.l)
		rc, rl := cnfSize(v.r)
		// Every left clause merges with every right one.
		return min(lc*rc, limit), min(ll*rc+rl*lc, limit)
	default:
		panic("query: unknown NNF node")
	}
}

// nnf is the intermediate negation-normal form: And/Or over Cmp leaves.
type nnf interface{ isNNF() }

type nAnd struct{ l, r nnf }
type nOr struct{ l, r nnf }
type nLit struct{ c Cmp }
type nTrue struct{}
type nFalse struct{}

func (nAnd) isNNF()   {}
func (nOr) isNNF()    {}
func (nLit) isNNF()   {}
func (nTrue) isNNF()  {}
func (nFalse) isNNF() {}

// pushNot rewrites p into negation-normal form, negating when neg is set.
func pushNot(p Pred, neg bool) nnf {
	switch v := p.(type) {
	case True:
		if neg {
			return nFalse{}
		}
		return nTrue{}
	case Cmp:
		if neg {
			return nLit{Cmp{Op: v.Op.negate(), L: v.L, R: v.R}}
		}
		return nLit{v}
	case Not:
		return pushNot(v.X, !neg)
	case And:
		if neg { // De Morgan
			return nOr{pushNot(v.L, true), pushNot(v.R, true)}
		}
		return nAnd{pushNot(v.L, false), pushNot(v.R, false)}
	case Or:
		if neg {
			return nAnd{pushNot(v.L, true), pushNot(v.R, true)}
		}
		return nOr{pushNot(v.L, false), pushNot(v.R, false)}
	default:
		panic("query: unknown predicate node in CNF conversion")
	}
}

// distribute converts NNF to CNF by distributing Or over And.
func distribute(n nnf) CNF {
	switch v := n.(type) {
	case nTrue:
		return CNF{}
	case nFalse:
		return CNF{Clause{}} // the empty clause is unsatisfiable
	case nLit:
		return CNF{Clause{v.c}}
	case nAnd:
		return append(distribute(v.l), distribute(v.r)...)
	case nOr:
		left, right := distribute(v.l), distribute(v.r)
		// TRUE on either side absorbs the disjunction.
		if len(left) == 0 || len(right) == 0 {
			return CNF{}
		}
		out := make(CNF, 0, len(left)*len(right))
		for _, lc := range left {
			for _, rc := range right {
				merged := make(Clause, 0, len(lc)+len(rc))
				merged = append(merged, lc...)
				merged = append(merged, rc...)
				out = append(out, merged)
			}
		}
		return out
	default:
		panic("query: unknown NNF node")
	}
}
