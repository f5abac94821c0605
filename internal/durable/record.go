package durable

// WAL record and shared polynomial codecs. Every WAL frame is
//
//	u32 LE payload length | u32 LE CRC32-C of payload | payload
//
// and every payload is
//
//	u8 record type | uvarint sequence number | body
//
// Sequence numbers increase by exactly 1 per record for the whole life of
// a session (they survive snapshot rotation — the snapshot stores the last
// sequence it covers, and recovery skips records at or below it).
//
// Two record types exist:
//
//	recVocab — names newly interned since the last record, in interning
//	           order, so replay reconstructs identical Var ids.
//	recAdd   — one Engine.Add: the tag and the polynomial's monomials
//	           (coefficient + (var, pow) factors, vars as interned ids).
//
// Decoders are fuzzed (FuzzWALScan, FuzzSnapshotDecode): they must reject
// arbitrary bytes with an error, never panic, and never allocate
// proportionally to a length field that the remaining input cannot back.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"

	"provabs/internal/provenance"
)

// ErrCorrupt reports corruption recovery must not paper over: a bad CRC in
// the middle of the log, an undecodable payload, a sequence gap. A torn or
// truncated *tail* is not ErrCorrupt — that is the expected shape of a
// crash and is repaired by truncation.
var ErrCorrupt = errors.New("durable: corrupt")

const (
	recVocab byte = 1
	recAdd   byte = 2

	// frameHeaderLen is the length+CRC prefix of every WAL frame.
	frameHeaderLen = 8

	// maxRecordLen bounds one WAL record (a single Add). A polynomial
	// approaching this is pathological; the bound exists so a corrupt
	// length field cannot drive a giant allocation.
	maxRecordLen = 64 << 20

	// maxNameLen bounds one interned variable name (mirrors the codec.go
	// string cap).
	maxNameLen = 1 << 24
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// walRecord is one decoded WAL record.
type walRecord struct {
	seq  uint64
	kind byte

	names []string // recVocab

	tag   string     // recAdd
	terms []dumpTerm // recAdd
}

// dumpTerm is one decoded monomial: a coefficient and its factors.
type dumpTerm struct {
	coeff   float64
	factors []provenance.VarPow
}

// appendFrame wraps payload in a length+CRC frame.
func appendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
	return append(dst, payload...)
}

// appendVocabRecord encodes a recVocab payload (not framed).
func appendVocabRecord(dst []byte, seq uint64, names []string) []byte {
	dst = append(dst, recVocab)
	dst = binary.AppendUvarint(dst, seq)
	dst = binary.AppendUvarint(dst, uint64(len(names)))
	for _, n := range names {
		dst = binary.AppendUvarint(dst, uint64(len(n)))
		dst = append(dst, n...)
	}
	return dst
}

// appendAddRecord encodes a recAdd payload (not framed).
func appendAddRecord(dst []byte, seq uint64, tag string, p *provenance.Polynomial) []byte {
	dst = append(dst, recAdd)
	dst = binary.AppendUvarint(dst, seq)
	dst = binary.AppendUvarint(dst, uint64(len(tag)))
	dst = append(dst, tag...)
	return appendPoly(dst, p.Compile().TermArrays(), 0)
}

// appendPoly encodes polynomial i of a kernel's term arrays, its terms in
// the kernel's ascending key order — the codec shared by WAL add records
// and the snapshot's source-set section.
func appendPoly(dst []byte, k provenance.TermArrays[float64], i int) []byte {
	dst = binary.AppendUvarint(dst, uint64(k.PolyOff[i+1]-k.PolyOff[i]))
	for t := k.PolyOff[i]; t < k.PolyOff[i+1]; t++ {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(k.Coeffs[t]))
		dst = binary.AppendUvarint(dst, uint64(k.FactOff[t+1]-k.FactOff[t]))
		for f := k.FactOff[t]; f < k.FactOff[t+1]; f++ {
			dst = binary.AppendUvarint(dst, uint64(k.Vars[f]))
			dst = binary.AppendUvarint(dst, uint64(k.Pows[f]))
		}
	}
	return dst
}

// byteReader is a bounds-checked cursor over a decoded payload.
type byteReader struct {
	b   []byte
	off int
}

func (r *byteReader) remaining() int { return len(r.b) - r.off }

func (r *byteReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad uvarint", ErrCorrupt)
	}
	r.off += n
	return v, nil
}

func (r *byteReader) u64() (uint64, error) {
	if r.remaining() < 8 {
		return 0, fmt.Errorf("%w: truncated u64", ErrCorrupt)
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v, nil
}

func (r *byteReader) bytes(n int) ([]byte, error) {
	if n < 0 || r.remaining() < n {
		return nil, fmt.Errorf("%w: truncated field", ErrCorrupt)
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b, nil
}

// lenString reads a uvarint-length-prefixed string with a sanity cap.
func (r *byteReader) lenString(maxLen int) (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(maxLen) || n > uint64(r.remaining()) {
		return "", fmt.Errorf("%w: string length %d out of range", ErrCorrupt, n)
	}
	b, err := r.bytes(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// decodeRecord parses one framed payload into a walRecord.
func decodeRecord(payload []byte) (walRecord, error) {
	r := &byteReader{b: payload}
	kindB, err := r.bytes(1)
	if err != nil {
		return walRecord{}, err
	}
	rec := walRecord{kind: kindB[0]}
	if rec.seq, err = r.uvarint(); err != nil {
		return walRecord{}, err
	}
	switch rec.kind {
	case recVocab:
		n, err := r.uvarint()
		if err != nil {
			return walRecord{}, err
		}
		if n > uint64(r.remaining()) {
			return walRecord{}, fmt.Errorf("%w: vocab record claims %d names", ErrCorrupt, n)
		}
		rec.names = make([]string, 0, n)
		for i := uint64(0); i < n; i++ {
			name, err := r.lenString(maxNameLen)
			if err != nil {
				return walRecord{}, err
			}
			rec.names = append(rec.names, name)
		}
	case recAdd:
		if rec.tag, err = r.lenString(maxNameLen); err != nil {
			return walRecord{}, err
		}
		if rec.terms, err = decodePoly(r); err != nil {
			return walRecord{}, err
		}
	default:
		return walRecord{}, fmt.Errorf("%w: unknown record type %d", ErrCorrupt, rec.kind)
	}
	if r.remaining() != 0 {
		return walRecord{}, fmt.Errorf("%w: %d trailing bytes in record", ErrCorrupt, r.remaining())
	}
	return rec, nil
}

// decodePoly parses the shared polynomial body into terms. Variable ids
// are only bounds-checked here; buildPoly range-checks them against the
// actual vocabulary at apply time, after any preceding vocab record has
// grown it.
func decodePoly(r *byteReader) ([]dumpTerm, error) {
	var terms []dumpTerm
	_, err := readPoly(r, nil, func(coeff float64, factors []provenance.VarPow) error {
		terms = append(terms, dumpTerm{coeff: coeff, factors: slices.Clone(factors)})
		return nil
	})
	return terms, err
}

// readPoly parses the shared polynomial body, handing each term to term
// with its factors in buf, which it reuses and returns. A term's
// variables must be strictly ascending, as appendPoly writes them.
func readPoly(r *byteReader, buf []provenance.VarPow, term func(coeff float64, factors []provenance.VarPow) error) ([]provenance.VarPow, error) {
	nTerms, err := r.uvarint()
	if err != nil {
		return buf, err
	}
	// Each term costs at least 9 bytes (8-byte coefficient + factor count).
	if nTerms > uint64(r.remaining()/9)+1 {
		return buf, fmt.Errorf("%w: polynomial claims %d terms", ErrCorrupt, nTerms)
	}
	for i := uint64(0); i < nTerms; i++ {
		bits, err := r.u64()
		if err != nil {
			return buf, err
		}
		nf, err := r.uvarint()
		if err != nil {
			return buf, err
		}
		if nf > uint64(r.remaining()/2)+1 {
			return buf, fmt.Errorf("%w: monomial claims %d factors", ErrCorrupt, nf)
		}
		buf = buf[:0]
		for j := uint64(0); j < nf; j++ {
			v, err := r.uvarint()
			if err != nil {
				return buf, err
			}
			pw, err := r.uvarint()
			if err != nil {
				return buf, err
			}
			if v == 0 || v > math.MaxInt32 {
				return buf, fmt.Errorf("%w: variable id %d out of range", ErrCorrupt, v)
			}
			if pw == 0 || pw > math.MaxInt32 {
				return buf, fmt.Errorf("%w: exponent %d out of range", ErrCorrupt, pw)
			}
			if n := len(buf); n > 0 && provenance.Var(v) <= buf[n-1].Var {
				return buf, fmt.Errorf("%w: variable %d follows variable %d in one monomial; variables must be strictly ascending", ErrCorrupt, v, buf[n-1].Var)
			}
			buf = append(buf, provenance.VarPow{Var: provenance.Var(v), Pow: int32(pw)})
		}
		if err := term(math.Float64frombits(bits), buf); err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// buildPoly turns decoded terms into a polynomial, range-checking every
// variable against the vocabulary size at apply time.
func buildPoly(terms []dumpTerm, vocabLen int) (*provenance.Polynomial, error) {
	if err := checkVocab(terms, vocabLen); err != nil {
		return nil, err
	}
	p := provenance.NewPolynomial()
	for _, t := range terms {
		p.AddMonomial(provenance.NewMonomialPows(t.coeff, t.factors...))
	}
	return p, nil
}

// checkVocab range-checks every variable of decoded terms against the
// vocabulary size.
func checkVocab(terms []dumpTerm, vocabLen int) error {
	for _, t := range terms {
		if err := checkFactors(t.factors, vocabLen); err != nil {
			return err
		}
	}
	return nil
}

// checkFactors range-checks one term's variables against the vocabulary
// size.
func checkFactors(factors []provenance.VarPow, vocabLen int) error {
	for _, f := range factors {
		if int(f.Var) > vocabLen {
			return fmt.Errorf("%w: polynomial references variable %d outside the vocabulary (size %d)", ErrCorrupt, f.Var, vocabLen)
		}
	}
	return nil
}
