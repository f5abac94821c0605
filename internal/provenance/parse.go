package provenance

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// Parse parses a polynomial in the paper's notation, e.g.
//
//	220.8·p1·m1 + 240*p1*m3 + 42*v*m1^2 - 3
//
// Both "·" and "*" multiply; "^" raises a variable to an integer power; terms
// are separated by "+" or "-". Variables are interned into vb. A bare number
// is a constant monomial; a bare variable has coefficient 1.
func Parse(vb *Vocab, s string) (*Polynomial, error) {
	p := NewPolynomial()
	lex := &lexer{src: s}
	sign := 1.0
	first := true
	for {
		lex.skipSpace()
		if lex.eof() {
			if first {
				return p, nil // empty input is the zero polynomial
			}
			return nil, fmt.Errorf("provenance: trailing operator in %q", s)
		}
		m, err := parseMonomial(vb, lex)
		if err != nil {
			return nil, err
		}
		m.Coeff *= sign
		p.AddMonomial(m)
		first = false
		lex.skipSpace()
		if lex.eof() {
			return p, nil
		}
		switch c := lex.next(); c {
		case '+':
			sign = 1
		case '-':
			sign = -1
		default:
			return nil, fmt.Errorf("provenance: unexpected %q at offset %d in %q", c, lex.pos-1, s)
		}
	}
}

// MustParse is Parse that panics on error; intended for tests and examples.
func MustParse(vb *Vocab, s string) *Polynomial {
	p, err := Parse(vb, s)
	if err != nil {
		panic(err)
	}
	return p
}

func parseMonomial(vb *Vocab, lex *lexer) (Monomial, error) {
	coeff := 1.0
	sawCoeff := false
	lex.skipSpace()
	if !lex.eof() {
		switch lex.peek() {
		case '-':
			lex.next()
			coeff = -1
		case '+':
			lex.next()
		}
	}
	var pows []VarPow
	for {
		lex.skipSpace()
		if lex.eof() {
			break
		}
		c := lex.peek()
		switch {
		case c >= '0' && c <= '9' || c == '.':
			f, err := lex.number()
			if err != nil {
				return Monomial{}, err
			}
			coeff *= f
			sawCoeff = true
		case isIdentStart(c):
			name := lex.ident()
			pow := int32(1)
			lex.skipSpace()
			if !lex.eof() && lex.peek() == '^' {
				lex.next()
				lex.skipSpace()
				f, err := lex.number()
				if err != nil {
					return Monomial{}, err
				}
				if f != float64(int32(f)) || f < 1 {
					return Monomial{}, fmt.Errorf("provenance: exponent must be a positive integer, got %v", f)
				}
				pow = int32(f)
			}
			pows = append(pows, VarPow{Var: vb.Var(name), Pow: pow})
		default:
			return Monomial{}, fmt.Errorf("provenance: unexpected %q at offset %d", c, lex.pos)
		}
		lex.skipSpace()
		if lex.eof() {
			break
		}
		c = lex.peek()
		if c == '*' || c == '·' {
			lex.next()
			lex.skipSpace()
			if lex.eof() {
				return Monomial{}, fmt.Errorf("provenance: dangling multiplication at offset %d", lex.pos)
			}
			continue
		}
		break
	}
	if len(pows) == 0 && !sawCoeff {
		return Monomial{}, fmt.Errorf("provenance: empty monomial at offset %d", lex.pos)
	}
	pows, over := canonicalPairs(pows)
	if over != 0 {
		return Monomial{}, fmt.Errorf("provenance: exponent %d out of range at offset %d: an exponent is at most 2^31−1", over, lex.pos)
	}
	return Monomial{Coeff: coeff, vars: pows}, nil
}

type lexer struct {
	src string
	pos int
}

func (l *lexer) eof() bool { return l.pos >= len(l.src) }

func (l *lexer) peek() rune {
	r := []rune(l.src[l.pos:])
	return r[0]
}

func (l *lexer) next() rune {
	for i, r := range l.src[l.pos:] {
		l.pos += i + runeLen(r)
		return r
	}
	return 0
}

func runeLen(r rune) int { return len(string(r)) }

func (l *lexer) skipSpace() {
	for !l.eof() {
		r := l.peek()
		if !unicode.IsSpace(r) {
			return
		}
		l.next()
	}
}

func (l *lexer) number() (float64, error) {
	start := l.pos
	for !l.eof() {
		c := l.peek()
		if c >= '0' && c <= '9' || c == '.' || c == 'e' || c == 'E' ||
			((c == '+' || c == '-') && l.pos > start && (l.src[l.pos-1] == 'e' || l.src[l.pos-1] == 'E')) {
			l.next()
			continue
		}
		break
	}
	if l.pos == start {
		return 0, fmt.Errorf("provenance: expected number at offset %d", start)
	}
	f, err := strconv.ParseFloat(l.src[start:l.pos], 64)
	if err != nil {
		return 0, fmt.Errorf("provenance: bad number %q: %w", l.src[start:l.pos], err)
	}
	return f, nil
}

func (l *lexer) ident() string {
	start := l.pos
	for !l.eof() {
		c := l.peek()
		if isIdentStart(c) || c >= '0' && c <= '9' {
			l.next()
			continue
		}
		break
	}
	return l.src[start:l.pos]
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

// FormatSet renders a whole set, one "tag: polynomial" line per member.
func FormatSet(s *Set) string {
	var sb strings.Builder
	for i := range s.Len() {
		tag := ""
		if i < len(s.Tags) {
			tag = s.Tags[i]
		}
		if tag != "" {
			sb.WriteString(tag)
			sb.WriteString(": ")
		}
		sb.WriteString(s.Poly(i).String(s.Vocab))
		sb.WriteString("\n")
	}
	return sb.String()
}
