package provenance

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Parse parses a polynomial in the paper's notation, e.g.
//
//	220.8·p1·m1 + 240*p1*m3 + 42*v*m1^2 - 3
//
// Both "·" and "*" multiply; "^" raises a variable to an integer power; terms
// are separated by "+" or "-". Variables are interned into vb. A bare number
// is a constant monomial; a bare variable has coefficient 1. Monomials with
// the same variables merge, their coefficients summed in the order they
// appear, and a sum of exactly zero drops the monomial.
//
// Parsing takes time linear in the length of s: Parse reads s once, through
// ParseKernel, and builds the map polynomial from the kernel's terms.
func Parse(vb *Vocab, s string) (*Polynomial, error) {
	var b PolyBuilder
	k, err := b.Parse(vb, s)
	if err != nil {
		return nil, err
	}
	return polyOf(&k.kernelArrays, 0), nil
}

// ParseKernel parses s as Parse does into a one-polynomial kernel over vb:
// the terms Parse's map would hold, in ascending key order, as
// Polynomial.Compile lays them out. It is the first step of an add, which
// goes from its text to the kernels it extends without a map.
func ParseKernel(vb *Vocab, s string) (*Compiled, error) {
	return new(PolyBuilder).Parse(vb, s)
}

// Parse parses s as Parse does into the builder's one-polynomial kernel,
// replacing what the builder held, and returns that kernel; the next use
// of the builder overwrites it.
func (b *PolyBuilder) Parse(vb *Vocab, s string) (*Compiled, error) {
	b.Reset()
	lex := &lexer{src: s}
	sign := 1.0
	first := true
	for {
		lex.skipSpace()
		if lex.eof() {
			if first {
				return b.Kernel(vb), nil // empty input is the zero polynomial
			}
			return nil, fmt.Errorf("provenance: trailing operator in %q", s)
		}
		coeff, err := b.parseMonomial(vb, lex)
		if err != nil {
			return nil, err
		}
		b.endTerm(coeff * sign)
		first = false
		lex.skipSpace()
		if lex.eof() {
			return b.Kernel(vb), nil
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

// parseMonomial reads one monomial's factors onto the builder's pending
// term and returns its coefficient.
func (b *PolyBuilder) parseMonomial(vb *Vocab, lex *lexer) (float64, error) {
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
	pows := b.pairs
	from := len(pows)
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
				return 0, err
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
					return 0, err
				}
				if f != float64(int32(f)) || f < 1 {
					return 0, fmt.Errorf("provenance: exponent must be a positive integer, got %v", f)
				}
				pow = int32(f)
			}
			v, ok := vb.Lookup(name)
			if !ok {
				v = vb.Var(strings.Clone(name)) // the vocabulary keeps no view of s
			}
			pows = append(pows, VarPow{Var: v, Pow: pow})
		default:
			return 0, fmt.Errorf("provenance: unexpected %q at offset %d", c, lex.pos)
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
				return 0, fmt.Errorf("provenance: dangling multiplication at offset %d", lex.pos)
			}
			continue
		}
		break
	}
	b.pairs = pows
	if len(pows) == from && !sawCoeff {
		return 0, fmt.Errorf("provenance: empty monomial at offset %d", lex.pos)
	}
	merged, over := canonicalPairs(pows[from:])
	if over != 0 {
		return 0, fmt.Errorf("provenance: exponent %d out of range at offset %d: an exponent is at most 2^31−1", over, lex.pos)
	}
	b.pairs = pows[:from+len(merged)]
	return coeff, nil
}

// lexer reads runes from src, one at a time, without copying it.
type lexer struct {
	src string
	pos int
}

func (l *lexer) eof() bool { return l.pos >= len(l.src) }

// peek returns the rune at pos (utf8.RuneError for a byte that starts no
// valid encoding).
func (l *lexer) peek() rune {
	if c := l.src[l.pos]; c < utf8.RuneSelf {
		return rune(c)
	}
	r, _ := utf8.DecodeRuneInString(l.src[l.pos:])
	return r
}

// next returns the rune at pos and moves past it.
func (l *lexer) next() rune {
	if l.eof() {
		return 0
	}
	if c := l.src[l.pos]; c < utf8.RuneSelf {
		l.pos++
		return rune(c)
	}
	r, n := utf8.DecodeRuneInString(l.src[l.pos:])
	l.pos += n
	return r
}

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
