package query

import (
	"fmt"
	"strconv"
	"strings"
)

// Statement is a parsed StreamSQL-style query (Appendix B):
//
//	SELECT S.id, T.id
//	FROM S, T [windowsize=3 sampleinterval=100]
//	WHERE S.id < 25 AND hash(S.u) % 2 = 0
//	  AND T.id > 50 AND hash(T.u) % 2 = 0
//	  AND S.x = T.y + 5 AND S.u = T.u
type Statement struct {
	// Select lists the projected attributes.
	Select []AttrRef
	// WindowSize is the join window w (default 1).
	WindowSize int
	// SampleInterval is the transmission cycles per sampling cycle
	// (default 100).
	SampleInterval int
	// Where is the predicate (True for a missing WHERE clause).
	Where Pred
}

// Compiled is a Statement pushed through the section 2 pre-processing
// pipeline: CNF conversion, clause classification, and the pattern
// matcher's primary/secondary split.
type Compiled struct {
	Statement
	Parts     Parts
	Primary   []Routable
	Secondary CNF
}

// Parse parses a query string against the schema.
func Parse(src string, schema *Schema) (*Statement, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, schema: schema}
	st, err := p.statement()
	if err != nil {
		return nil, err
	}
	if !p.at(tokEOF) {
		return nil, p.errf("trailing input starting at %s", p.peek())
	}
	return st, nil
}

// Compile parses and pre-processes a query: the result carries the
// classified CNF clauses and routable primary join predicates, ready for
// the join engines.
func Compile(src string, schema *Schema) (*Compiled, error) {
	st, err := Parse(src, schema)
	if err != nil {
		return nil, err
	}
	n := pushNot(st.Where, false)
	if _, lits := cnfSize(n); lits > maxCNFLiterals {
		return nil, fmt.Errorf("query: predicate expands to more than %d literals in conjunctive normal form", maxCNFLiterals)
	}
	parts := Classify(distribute(n), schema)
	primary, secondary := MatchRoutable(parts.JoinStatic, schema)
	return &Compiled{Statement: *st, Parts: parts, Primary: primary, Secondary: secondary}, nil
}

type parser struct {
	toks   []token
	pos    int
	schema *Schema
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) at(k tokKind) bool {
	return p.peek().kind == k
}
func (p *parser) atKeyword(kw string) bool {
	t := p.peek()
	return t.kind == tokKeyword && t.text == kw
}
func (p *parser) eatKeyword(kw string) bool {
	if p.atKeyword(kw) {
		p.pos++
		return true
	}
	return false
}
func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("query: "+format, args...)
}

func (p *parser) expect(k tokKind, what string) (token, error) {
	if !p.at(k) {
		return token{}, p.errf("expected %s, found %s", what, p.peek())
	}
	return p.next(), nil
}

// statement := SELECT projlist FROM S, T [opts] [WHERE pred]
func (p *parser) statement() (*Statement, error) {
	st := &Statement{WindowSize: 1, SampleInterval: 100, Where: True{}}
	if !p.eatKeyword("SELECT") {
		return nil, p.errf("expected SELECT, found %s", p.peek())
	}
	for {
		ref, err := p.attrRef()
		if err != nil {
			return nil, err
		}
		st.Select = append(st.Select, ref)
		if !p.at(tokComma) {
			break
		}
		p.next()
	}
	if !p.eatKeyword("FROM") {
		return nil, p.errf("expected FROM, found %s", p.peek())
	}
	if err := p.fromClause(); err != nil {
		return nil, err
	}
	if p.at(tokLBracket) {
		if err := p.options(st); err != nil {
			return nil, err
		}
	}
	if p.eatKeyword("WHERE") {
		pred, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		st.Where = pred
	}
	return st, nil
}

// fromClause := S , T   (exactly the two sensor relations; Appendix B
// supports select-project-single-join queries over S and T).
func (p *parser) fromClause() error {
	first, err := p.expect(tokIdent, "relation name")
	if err != nil {
		return err
	}
	if _, err := p.expect(tokComma, "','"); err != nil {
		return err
	}
	second, err := p.expect(tokIdent, "relation name")
	if err != nil {
		return err
	}
	if !strings.EqualFold(first.text, "S") || !strings.EqualFold(second.text, "T") {
		return p.errf("FROM must name the sensor relations S, T (got %s, %s)", first.text, second.text)
	}
	return nil
}

// options := '[' (windowsize=N | sampleinterval=N)* ']'
func (p *parser) options(st *Statement) error {
	p.next() // '['
	for !p.at(tokRBracket) {
		if p.at(tokEOF) {
			return p.errf("unterminated options block")
		}
		key := p.next()
		if key.kind != tokKeyword && key.kind != tokIdent {
			return p.errf("expected option name, found %s", key)
		}
		if cmp, err := p.expect(tokCmp, "'='"); err != nil || cmp.text != "=" {
			if err != nil {
				return err
			}
			return p.errf("expected '=' after %s", key.text)
		}
		num, err := p.expect(tokNumber, "number")
		if err != nil {
			return err
		}
		v, err := strconv.Atoi(num.text)
		if err != nil || v <= 0 {
			return p.errf("invalid option value %q", num.text)
		}
		switch strings.ToUpper(key.text) {
		case "WINDOWSIZE":
			st.WindowSize = v
		case "SAMPLEINTERVAL":
			st.SampleInterval = v
		default:
			return p.errf("unknown option %q", key.text)
		}
	}
	p.next() // ']'
	return nil
}

// orExpr := andExpr (OR andExpr)*
func (p *parser) orExpr() (Pred, error) {
	left, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.eatKeyword("OR") {
		right, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		left = Or{left, right}
	}
	return left, nil
}

// andExpr := notExpr (AND notExpr)*
func (p *parser) andExpr() (Pred, error) {
	left, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.eatKeyword("AND") {
		right, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		left = And{left, right}
	}
	return left, nil
}

// notExpr := NOT notExpr | comparison
func (p *parser) notExpr() (Pred, error) {
	if p.eatKeyword("NOT") {
		inner, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return Not{inner}, nil
	}
	return p.comparison()
}

// comparison := term cmpOp term | '(' orExpr ')'
//
// A leading '(' is ambiguous between a parenthesized predicate and a
// parenthesized arithmetic term; we resolve by look-ahead: parse as a
// predicate if the parenthesized expression is followed by a boolean
// combinator or clause end, otherwise backtrack to term parsing.
func (p *parser) comparison() (Pred, error) {
	if p.at(tokLParen) {
		save := p.pos
		p.next()
		inner, err := p.orExpr()
		if err == nil && p.at(tokRParen) {
			p.next()
			// Confirm this parse is a predicate context: next token must
			// not continue an arithmetic or comparison expression.
			if !p.at(tokOp) && !p.at(tokCmp) {
				return inner, nil
			}
		}
		p.pos = save
	}
	left, err := p.term()
	if err != nil {
		return nil, err
	}
	op, err := p.expect(tokCmp, "comparison operator")
	if err != nil {
		return nil, err
	}
	right, err := p.term()
	if err != nil {
		return nil, err
	}
	cmp, ok := map[string]CmpOp{
		"=": EQ, "!=": NE, "<>": NE, "<": LT, "<=": LE, ">": GT, ">=": GE,
	}[op.text]
	if !ok {
		return nil, p.errf("unknown comparison %q", op.text)
	}
	return Cmp{Op: cmp, L: left, R: right}, nil
}

// term := factor (('+'|'-') factor)*
func (p *parser) term() (Term, error) {
	left, err := p.factor()
	if err != nil {
		return nil, err
	}
	for p.at(tokOp) && (p.peek().text == "+" || p.peek().text == "-") {
		op := p.next().text
		right, err := p.factor()
		if err != nil {
			return nil, err
		}
		kind := Add
		if op == "-" {
			kind = Sub
		}
		left = Arith{Op: kind, L: left, R: right}
	}
	return left, nil
}

// factor := unary (('*'|'/'|'%') unary)*
func (p *parser) factor() (Term, error) {
	left, err := p.unary()
	if err != nil {
		return nil, err
	}
	for p.at(tokOp) && (p.peek().text == "*" || p.peek().text == "/" || p.peek().text == "%") {
		op := p.next().text
		right, err := p.unary()
		if err != nil {
			return nil, err
		}
		kind := Mul
		switch op {
		case "/":
			kind = Div
		case "%":
			kind = Mod
		}
		left = Arith{Op: kind, L: left, R: right}
	}
	return left, nil
}

// unary := '-' unary | primary
func (p *parser) unary() (Term, error) {
	if p.at(tokOp) && p.peek().text == "-" {
		p.next()
		inner, err := p.unary()
		if err != nil {
			return nil, err
		}
		return Arith{Op: Sub, L: Const(0), R: inner}, nil
	}
	return p.primary()
}

// primary := number | attrRef | func '(' term ')' | '(' term ')'
func (p *parser) primary() (Term, error) {
	switch {
	case p.at(tokNumber):
		t := p.next()
		v, err := strconv.ParseInt(t.text, 10, 32)
		if err != nil {
			return nil, p.errf("integer %q out of 32-bit range", t.text)
		}
		return Const(int32(v)), nil
	case p.at(tokLParen):
		p.next()
		inner, err := p.term()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
		return inner, nil
	case p.at(tokIdent):
		name := p.next()
		if p.at(tokLParen) {
			return p.call(name.text)
		}
		// Must be a relation-qualified attribute: S.attr / T.attr.
		p.pos-- // rewind; attrRef re-reads the identifier
		ref, err := p.attrRef()
		if err != nil {
			return nil, err
		}
		return Attr{Rel: ref.Rel, Attr: ref.Attr}, nil
	default:
		return nil, p.errf("expected a value, found %s", p.peek())
	}
}

// call := ident '(' term ')' for the utility functions of Appendix B.
func (p *parser) call(name string) (Term, error) {
	p.next() // '('
	arg, err := p.term()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokRParen, "')'"); err != nil {
		return nil, err
	}
	switch strings.ToLower(name) {
	case "hash":
		return Hash{arg}, nil
	case "abs":
		return Abs{arg}, nil
	default:
		return nil, p.errf("unknown function %q (supported: hash, abs)", name)
	}
}

// attrRef := ('S'|'T') '.' ident, validated against the schema.
func (p *parser) attrRef() (AttrRef, error) {
	rel, err := p.expect(tokIdent, "relation (S or T)")
	if err != nil {
		return AttrRef{}, err
	}
	var r Rel
	switch strings.ToUpper(rel.text) {
	case "S":
		r = S
	case "T":
		r = T
	default:
		return AttrRef{}, p.errf("unknown relation %q (queries join S and T)", rel.text)
	}
	if _, err := p.expect(tokDot, "'.'"); err != nil {
		return AttrRef{}, err
	}
	attr, err := p.expect(tokIdent, "attribute name")
	if err != nil {
		return AttrRef{}, err
	}
	if p.schema != nil && !p.schema.Has(attr.text) {
		return AttrRef{}, p.errf("unknown attribute %q (schema has %d attributes)", attr.text, p.schema.NumAttrs())
	}
	return AttrRef{Rel: r, Attr: attr.text}, nil
}
