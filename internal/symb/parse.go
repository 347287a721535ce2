package symb

import (
	"fmt"
	"strconv"
	"unicode"
)

// ParseExpr parses an arithmetic expression over integer literals and
// parameter names into an Expr. The grammar is
//
//	expr   := term (('+'|'-') term)*
//	term   := unary (('*'|'/') unary)*
//	unary  := '-' unary | power
//	power  := atom ('^' INT)?
//	atom   := INT | IDENT | '(' expr ')'
//
// with implicit multiplication allowed between an atom and a following
// identifier or '(' (so "2p" and "beta(N+L)" parse as products, matching the
// rate notation used in the paper's figures).
func ParseExpr(s string) (_ Expr, err error) {
	defer CatchOverflow(&err)
	p := &exprParser{src: s}
	e, err := p.parseExpr()
	if err != nil {
		return Expr{}, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return Expr{}, fmt.Errorf("symb: unexpected %q at offset %d in %q", p.src[p.pos:], p.pos, s)
	}
	return e, nil
}

// MustParseExpr is ParseExpr that panics on error; for literals in tests and
// built-in application graphs.
func MustParseExpr(s string) Expr {
	e, err := ParseExpr(s)
	if err != nil {
		panic(err)
	}
	return e
}

type exprParser struct {
	src string
	pos int
}

func (p *exprParser) skipSpace() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t') {
		p.pos++
	}
}

func (p *exprParser) peek() byte {
	p.skipSpace()
	if p.pos >= len(p.src) {
		return 0
	}
	return p.src[p.pos]
}

func (p *exprParser) parseExpr() (Expr, error) {
	left, err := p.parseTerm()
	if err != nil {
		return Expr{}, err
	}
	for {
		switch p.peek() {
		case '+':
			p.pos++
			right, err := p.parseTerm()
			if err != nil {
				return Expr{}, err
			}
			left = left.Add(right)
		case '-':
			p.pos++
			right, err := p.parseTerm()
			if err != nil {
				return Expr{}, err
			}
			left = left.Sub(right)
		default:
			return left, nil
		}
	}
}

func (p *exprParser) parseTerm() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return Expr{}, err
	}
	for {
		switch c := p.peek(); {
		case c == '*':
			p.pos++
			right, err := p.parseUnary()
			if err != nil {
				return Expr{}, err
			}
			left = left.Mul(right)
		case c == '/':
			p.pos++
			right, err := p.parseUnary()
			if err != nil {
				return Expr{}, err
			}
			if right.IsZero() {
				return Expr{}, fmt.Errorf("symb: division by zero in expression")
			}
			left = left.Div(right)
		case c == '(' || isIdentStart(rune(c)):
			// Implicit multiplication: "2p", "beta(N+L)".
			right, err := p.parseUnary()
			if err != nil {
				return Expr{}, err
			}
			left = left.Mul(right)
		default:
			return left, nil
		}
	}
}

func (p *exprParser) parseUnary() (Expr, error) {
	if p.peek() == '-' {
		p.pos++
		e, err := p.parseUnary()
		if err != nil {
			return Expr{}, err
		}
		return e.Neg(), nil
	}
	return p.parsePower()
}

func (p *exprParser) parsePower() (Expr, error) {
	base, err := p.parseAtom()
	if err != nil {
		return Expr{}, err
	}
	if p.peek() != '^' {
		return base, nil
	}
	p.pos++
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) && p.src[p.pos] >= '0' && p.src[p.pos] <= '9' {
		p.pos++
	}
	if start == p.pos {
		return Expr{}, fmt.Errorf("symb: expected integer exponent at offset %d in %q", p.pos, p.src)
	}
	n, err := strconv.Atoi(p.src[start:p.pos])
	if err != nil {
		return Expr{}, fmt.Errorf("symb: bad exponent: %v", err)
	}
	out := OneExpr()
	for i := 0; i < n; i++ {
		out = out.Mul(base)
	}
	return out, nil
}

func (p *exprParser) parseAtom() (Expr, error) {
	c := p.peek()
	switch {
	case c == '(':
		p.pos++
		e, err := p.parseExpr()
		if err != nil {
			return Expr{}, err
		}
		if p.peek() != ')' {
			return Expr{}, fmt.Errorf("symb: missing ')' at offset %d in %q", p.pos, p.src)
		}
		p.pos++
		return e, nil
	case c >= '0' && c <= '9':
		start := p.pos
		for p.pos < len(p.src) && p.src[p.pos] >= '0' && p.src[p.pos] <= '9' {
			p.pos++
		}
		n, err := strconv.ParseInt(p.src[start:p.pos], 10, 64)
		if err != nil {
			return Expr{}, fmt.Errorf("symb: bad integer: %v", err)
		}
		return IntExpr(n), nil
	case isIdentStart(rune(c)):
		start := p.pos
		for p.pos < len(p.src) && isIdentPart(rune(p.src[p.pos])) {
			p.pos++
		}
		return Var(p.src[start:p.pos]), nil
	case c == 0:
		return Expr{}, fmt.Errorf("symb: unexpected end of expression %q", p.src)
	default:
		return Expr{}, fmt.Errorf("symb: unexpected %q at offset %d in %q", c, p.pos, p.src)
	}
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}
