package provenance

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// decodeOracle is the reader-based decoder Decode replaced, kept verbatim
// as the parity oracle for the one-pass slice decoder (FuzzDecode,
// BenchmarkDecode). It trusts the counts in its input and accepts a
// vocabulary that repeats a name; Decode rejects both.
func decodeOracle(r io.Reader) (*Set, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("provenance: reading magic: %w", err)
	}
	if string(magic) != codecMagic {
		return nil, fmt.Errorf("provenance: bad magic %q", magic)
	}
	ver, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	if ver != codecVersion {
		return nil, fmt.Errorf("provenance: unsupported version %d", ver)
	}
	nvars, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	vb := NewVocab()
	for i := uint64(0); i < nvars; i++ {
		name, err := readStringOracle(br)
		if err != nil {
			return nil, err
		}
		vb.Var(name)
	}
	npolys, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	s := NewSet(vb)
	for i := uint64(0); i < npolys; i++ {
		tag, err := readStringOracle(br)
		if err != nil {
			return nil, err
		}
		nterms, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		p := NewPolynomial()
		for t := uint64(0); t < nterms; t++ {
			var fb [8]byte
			if _, err := io.ReadFull(br, fb[:]); err != nil {
				return nil, err
			}
			coeff := math.Float64frombits(binary.LittleEndian.Uint64(fb[:]))
			nvp, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			pows := make([]VarPow, nvp)
			for j := range pows {
				v, err := binary.ReadVarint(br)
				if err != nil {
					return nil, err
				}
				pw, err := binary.ReadUvarint(br)
				if err != nil {
					return nil, err
				}
				if v <= 0 || v > int64(vb.Len()) {
					return nil, fmt.Errorf("provenance: variable %d out of range", v)
				}
				if pw == 0 || pw > math.MaxInt32 {
					return nil, fmt.Errorf("provenance: exponent %d out of range", pw)
				}
				pows[j] = VarPow{Var: Var(v), Pow: int32(pw)}
			}
			p.AddMonomial(NewMonomialPows(coeff, pows...))
		}
		s.Add(tag, p)
	}
	return s, nil
}

func readStringOracle(r *bufio.Reader) (string, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", err
	}
	if n > 1<<24 {
		return "", fmt.Errorf("provenance: unreasonable string length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
