package query

// Parts is the result of query pre-processing (section 2, Appendix B):
// CNF clauses separated into per-relation selections and join clauses, each
// split into static (pre-evaluable during initiation) and dynamic
// (per-cycle) subgroups.
type Parts struct {
	// SelS / SelT are selection clauses referencing only static attributes
	// of one relation; pre-evaluating them decides node eligibility.
	SelS, SelT CNF
	// DynSelS / DynSelT are per-relation selection clauses over dynamic
	// attributes, evaluated at the producer each cycle (they define the
	// producer rates sigma_s, sigma_t).
	DynSelS, DynSelT CNF
	// JoinStatic are join clauses over static attributes only; the
	// pattern matcher turns a subset of them into routing predicates.
	JoinStatic CNF
	// JoinDynamic are join clauses involving dynamic attributes,
	// evaluated at the join node (they define sigma_st).
	JoinDynamic CNF
}

// Classify partitions a CNF query by the relations and attribute classes
// each clause references.
func Classify(f CNF, schema *Schema) Parts {
	var p Parts
	for _, c := range f {
		refsS, refsT, static := false, false, true
		//aspen:orderinvariant boolean folds over the clause's references
		for ref := range c.Refs() {
			if ref.Rel == S {
				refsS = true
			} else {
				refsT = true
			}
			if !schema.IsStatic(ref.Attr) {
				static = false
			}
		}
		switch {
		case refsS && refsT:
			if static {
				p.JoinStatic = append(p.JoinStatic, c)
			} else {
				p.JoinDynamic = append(p.JoinDynamic, c)
			}
		case refsS:
			if static {
				p.SelS = append(p.SelS, c)
			} else {
				p.DynSelS = append(p.DynSelS, c)
			}
		case refsT:
			if static {
				p.SelT = append(p.SelT, c)
			} else {
				p.DynSelT = append(p.DynSelT, c)
			}
		default:
			// Constant clause: keep with static joins so an unsatisfiable
			// query (empty clause) disables all pairs.
			p.JoinStatic = append(p.JoinStatic, c)
		}
	}
	return p
}

// Routable is a primary join predicate usable for content routing: for a
// given source node, the sought target nodes are exactly those whose
// indexed static attribute equals SourceTerm evaluated over the source's
// statics (e.g. S.x = T.y+5 routes on T.y with SourceTerm S.x-5).
type Routable struct {
	// TargetAttr is the T-side indexed attribute.
	TargetAttr string
	// SourceTerm references only S attributes; its value is the key to
	// search for.
	SourceTerm Term
}

// MatchRoutable is the pattern matcher of Appendix B: it scans static join
// clauses and extracts those usable for content routing (primary join
// predicates); the remainder are secondary, evaluated after the routing
// stage. Only single-literal equality clauses whose T side is an attribute
// under invertible +/- constant arithmetic qualify.
func MatchRoutable(joinStatic CNF, schema *Schema) (primary []Routable, secondary CNF) {
	for _, clause := range joinStatic {
		r, ok := routableClause(clause, schema)
		if ok {
			primary = append(primary, r)
		} else {
			secondary = append(secondary, clause)
		}
	}
	return primary, secondary
}

func routableClause(c Clause, schema *Schema) (Routable, bool) {
	if len(c) != 1 || c[0].Op != EQ {
		return Routable{}, false // disjunctions and inequalities route poorly
	}
	lit := c[0]
	// Try both orientations: T-side = f(S), or f(S) = T-side.
	if r, ok := invert(lit.L, lit.R, schema); ok {
		return r, true
	}
	if r, ok := invert(lit.R, lit.L, schema); ok {
		return r, true
	}
	return Routable{}, false
}

// invert attempts to rewrite tSide = sSide into T.attr = <term over S>.
// tSide must reference only static T attributes; sSide only static S
// attributes. Supported tSide forms: T.a, T.a + c, T.a - c, c + T.a.
func invert(tSide, sSide Term, schema *Schema) (Routable, bool) {
	if !refsOnly(sSide, S, schema) {
		return Routable{}, false
	}
	switch v := tSide.(type) {
	case Attr:
		if v.Rel == T && schema.IsStatic(v.Attr) {
			return Routable{TargetAttr: v.Attr, SourceTerm: sSide}, true
		}
	case Arith:
		c, cOnRight := constOperand(v)
		if c == nil {
			return Routable{}, false
		}
		var inner Term
		if cOnRight {
			inner = v.L
		} else {
			inner = v.R
		}
		switch v.Op {
		case Add: // T.a + c = s  =>  T.a = s - c
			return invert(inner, Arith{Op: Sub, L: sSide, R: *c}, schema)
		case Sub:
			if cOnRight { // T.a - c = s  =>  T.a = s + c
				return invert(inner, Arith{Op: Add, L: sSide, R: *c}, schema)
			}
			// c - T.a = s  =>  T.a = c - s
			return invert(inner, Arith{Op: Sub, L: *c, R: sSide}, schema)
		}
	}
	return Routable{}, false
}

// constOperand returns the constant operand of a, if it has exactly one.
func constOperand(a Arith) (*Const, bool) {
	if c, ok := a.R.(Const); ok {
		return &c, true
	}
	if c, ok := a.L.(Const); ok {
		return &c, false
	}
	return nil, false
}

// refsOnly reports whether t references only static attributes of rel.
func refsOnly(t Term, rel Rel, schema *Schema) bool {
	set := map[AttrRef]bool{}
	t.refs(set)
	if len(set) == 0 {
		return false // pure constants are not source-keyed
	}
	//aspen:orderinvariant every reference must pass: a boolean fold
	for ref := range set {
		if ref.Rel != rel || !schema.IsStatic(ref.Attr) {
			return false
		}
	}
	return true
}
