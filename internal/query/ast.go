// Package query implements the paper's query model (section 2 and Appendix
// B): StreamSQL-style select-project-join queries over two sensor relations
// S and T, with a predicate AST, conversion to conjunctive normal form,
// classification of clauses into static/dynamic selections and joins, and
// the pattern matcher that separates primary (routable) join predicates
// from secondary ones evaluated after routing.
//
// Attribute values are 16-bit integers as in the paper ("predicates over
// 16-bit integer attributes, common for most hardware"); we compute in
// int32 to avoid overflow in arithmetic sub-expressions and truncate only
// at the sensor boundary.
package query

import "fmt"

// Rel names one of the two joined relations.
type Rel uint8

const (
	// S is the source relation.
	S Rel = iota
	// T is the target relation.
	T
)

// String returns "S" or "T".
func (r Rel) String() string {
	if r == S {
		return "S"
	}
	return "T"
}

// Binding supplies attribute values during evaluation: the static
// attributes of the bound node(s) plus the current dynamic readings.
type Binding interface {
	// Value returns the named attribute of the given relation's bound
	// tuple. It panics on unknown attributes — queries are validated
	// against the schema before execution.
	Value(rel Rel, attr string) int32
}

// MapBinding is a simple Binding over nested maps, used by tests and the
// query pre-processor.
type MapBinding map[Rel]map[string]int32

// Value implements Binding.
func (b MapBinding) Value(rel Rel, attr string) int32 {
	v, ok := b[rel][attr]
	if !ok {
		panic(fmt.Sprintf("query: unbound attribute %v.%s", rel, attr))
	}
	return v
}

// --- Terms (integer-valued expressions) ------------------------------------

// Term is an integer-valued expression.
type Term interface {
	Eval(b Binding) int32
	// refs adds every referenced attribute to set.
	refs(set map[AttrRef]bool)
	String() string
}

// AttrRef identifies one attribute of one relation.
type AttrRef struct {
	Rel  Rel
	Attr string
}

// String returns "S.attr" / "T.attr".
func (a AttrRef) String() string { return a.Rel.String() + "." + a.Attr }

// Attr is a Term referencing an attribute.
type Attr struct {
	Rel  Rel
	Attr string
}

// Eval implements Term.
func (a Attr) Eval(b Binding) int32 { return b.Value(a.Rel, a.Attr) }

func (a Attr) refs(set map[AttrRef]bool) { set[AttrRef{a.Rel, a.Attr}] = true }

// String implements Term.
func (a Attr) String() string { return a.Rel.String() + "." + a.Attr }

// Const is a literal Term.
type Const int32

// Eval implements Term.
func (c Const) Eval(Binding) int32 { return int32(c) }

func (c Const) refs(map[AttrRef]bool) {}

// String implements Term.
func (c Const) String() string { return fmt.Sprintf("%d", int32(c)) }

// ArithOp is a binary arithmetic operator.
type ArithOp uint8

// Arithmetic operators supported in predicates (Appendix B: "the standard
// arithmetic operators").
const (
	Add ArithOp = iota
	Sub
	Mul
	Div
	Mod
)

var arithNames = [...]string{"+", "-", "*", "/", "%"}

// Arith applies op to two sub-terms.
type Arith struct {
	Op   ArithOp
	L, R Term
}

// Eval implements Term. Division and modulo by zero evaluate to 0 rather
// than crashing a sensor node mid-query.
func (a Arith) Eval(b Binding) int32 { return arith(a.Op, a.L.Eval(b), a.R.Eval(b)) }

// arith applies op; Eval and CompilePair share it so both agree bit for bit.
func arith(op ArithOp, l, r int32) int32 {
	switch op {
	case Add:
		return l + r
	case Sub:
		return l - r
	case Mul:
		return l * r
	case Div:
		if r == 0 {
			return 0
		}
		return l / r
	case Mod:
		if r == 0 {
			return 0
		}
		m := l % r
		if m < 0 {
			m += abs32(r) // mathematical modulus: id%4 buckets are non-negative
		}
		return m
	default:
		panic("query: unknown arithmetic op")
	}
}

func (a Arith) refs(set map[AttrRef]bool) { a.L.refs(set); a.R.refs(set) }

// String implements Term.
func (a Arith) String() string {
	return "(" + a.L.String() + arithNames[a.Op] + a.R.String() + ")"
}

// Abs is |x| (Query 3's abs(s.v - t.v)).
type Abs struct{ X Term }

// Eval implements Term.
func (a Abs) Eval(b Binding) int32 { return abs32(a.X.Eval(b)) }

func (a Abs) refs(set map[AttrRef]bool) { a.X.refs(set) }

// String implements Term.
func (a Abs) String() string { return "abs(" + a.X.String() + ")" }

func abs32(v int32) int32 {
	if v < 0 {
		return -v
	}
	return v
}

// Hash is the query-language hash function (Table 2's hP(u) filters). It
// must agree across all nodes, so it is a fixed integer mix.
type Hash struct{ X Term }

// HashValue is the node-side hash used by Hash and by the workload's
// selectivity filters.
func HashValue(v int32) int32 {
	z := uint64(uint32(v)) * 0x9E3779B97F4A7C15
	z ^= z >> 29
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 32
	return int32(uint32(z) & 0x7FFFFFFF) // non-negative
}

// Eval implements Term.
func (h Hash) Eval(b Binding) int32 { return HashValue(h.X.Eval(b)) }

func (h Hash) refs(set map[AttrRef]bool) { h.X.refs(set) }

// String implements Term.
func (h Hash) String() string { return "hash(" + h.X.String() + ")" }

// --- Predicates -------------------------------------------------------------

// CmpOp is a comparison operator.
type CmpOp uint8

// Comparison operators.
const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

var cmpNames = [...]string{"=", "!=", "<", "<=", ">", ">="}

// negate returns the complementary operator (for Not push-down).
func (op CmpOp) negate() CmpOp {
	switch op {
	case EQ:
		return NE
	case NE:
		return EQ
	case LT:
		return GE
	case LE:
		return GT
	case GT:
		return LE
	default:
		return LT
	}
}

// Pred is a boolean predicate expression.
type Pred interface {
	Eval(b Binding) bool
	// Refs returns all referenced attributes.
	Refs() map[AttrRef]bool
	String() string
}

// Cmp compares two terms. It is the only predicate leaf.
type Cmp struct {
	Op   CmpOp
	L, R Term
}

// Eval implements Pred.
func (c Cmp) Eval(b Binding) bool { return compare(c.Op, c.L.Eval(b), c.R.Eval(b)) }

// compare applies op; Eval and CompilePair share it.
func compare(op CmpOp, l, r int32) bool {
	switch op {
	case EQ:
		return l == r
	case NE:
		return l != r
	case LT:
		return l < r
	case LE:
		return l <= r
	case GT:
		return l > r
	case GE:
		return l >= r
	default:
		panic("query: unknown comparison")
	}
}

// Refs implements Pred.
func (c Cmp) Refs() map[AttrRef]bool {
	set := map[AttrRef]bool{}
	c.L.refs(set)
	c.R.refs(set)
	return set
}

// String implements Pred.
func (c Cmp) String() string { return c.L.String() + cmpNames[c.Op] + c.R.String() }

// And is conjunction.
type And struct{ L, R Pred }

// Eval implements Pred.
func (a And) Eval(b Binding) bool { return a.L.Eval(b) && a.R.Eval(b) }

// Refs implements Pred.
func (a And) Refs() map[AttrRef]bool { return unionRefs(a.L, a.R) }

// String implements Pred.
func (a And) String() string { return "(" + a.L.String() + " AND " + a.R.String() + ")" }

// Or is disjunction.
type Or struct{ L, R Pred }

// Eval implements Pred.
func (o Or) Eval(b Binding) bool { return o.L.Eval(b) || o.R.Eval(b) }

// Refs implements Pred.
func (o Or) Refs() map[AttrRef]bool { return unionRefs(o.L, o.R) }

// String implements Pred.
func (o Or) String() string { return "(" + o.L.String() + " OR " + o.R.String() + ")" }

// Not is negation.
type Not struct{ X Pred }

// Eval implements Pred.
func (n Not) Eval(b Binding) bool { return !n.X.Eval(b) }

// Refs implements Pred.
func (n Not) Refs() map[AttrRef]bool { return n.X.Refs() }

// String implements Pred.
func (n Not) String() string { return "NOT " + n.X.String() }

// True is the vacuous predicate (an empty WHERE clause).
type True struct{}

// Eval implements Pred.
func (True) Eval(Binding) bool { return true }

// Refs implements Pred.
func (True) Refs() map[AttrRef]bool { return map[AttrRef]bool{} }

// String implements Pred.
func (True) String() string { return "TRUE" }

func unionRefs(ps ...Pred) map[AttrRef]bool {
	set := map[AttrRef]bool{}
	for _, p := range ps {
		for r := range p.Refs() {
			set[r] = true
		}
	}
	return set
}
