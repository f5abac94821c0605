package provenance

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Binary codec for provenance sets. The anticipated use case (§1, "Offline
// vs. Online Compression") is that provenance is computed once, compressed,
// and shipped to many analysts; the codec gives the byte size that shipping
// and local storage would pay, so experiments can report compression in
// bytes as well as in monomial counts.
//
// Format (all integers varint unless noted):
//
//	magic "PVAB" | version u8
//	#vars | each: name len + bytes          (Var i+1 = i'th name)
//	#polys | each: tag len + bytes, #terms,
//	    each term: coeff (8-byte LE float), #varpows, each: var zigzag, pow
const (
	codecMagic   = "PVAB"
	codecVersion = 1
)

// Encode writes the set to w in the binary format.
func Encode(w io.Writer, s *Set) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(codecMagic); err != nil {
		return err
	}
	if err := bw.WriteByte(codecVersion); err != nil {
		return err
	}
	writeUvarint(bw, uint64(s.Vocab.Len()))
	for _, name := range s.Vocab.names {
		writeString(bw, name)
	}
	k := s.k
	writeUvarint(bw, uint64(k.Len()))
	for i := range k.Len() {
		tag := ""
		if i < len(s.Tags) {
			tag = s.Tags[i]
		}
		writeString(bw, tag)
		writeUvarint(bw, uint64(k.polyOff[i+1]-k.polyOff[i]))
		for t := k.polyOff[i]; t < k.polyOff[i+1]; t++ { // the kernel's ascending key order
			var fb [8]byte
			binary.LittleEndian.PutUint64(fb[:], math.Float64bits(k.coeffs[t]))
			if _, err := bw.Write(fb[:]); err != nil {
				return err
			}
			writeUvarint(bw, uint64(k.factOff[t+1]-k.factOff[t]))
			for f := k.factOff[t]; f < k.factOff[t+1]; f++ {
				writeVarint(bw, int64(k.vars[f]))
				writeUvarint(bw, uint64(k.pows[f]))
			}
		}
	}
	return bw.Flush()
}

// Decode reads a set from r. It reads r to its end into one buffer (sized
// up front when r reports its length) and parses that with DecodeBytes, so
// it returns only once r reports EOF or an error, and it consumes whatever
// follows the set. A read error that leaves the set incomplete is
// returned; bytes after a complete set, and errors met reading past it,
// are ignored. A caller that holds the bytes calls DecodeBytes.
func Decode(r io.Reader) (*Set, error) {
	data, rerr := readAll(r)
	s, err := DecodeBytes(data)
	if rerr != nil && (errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)) {
		if len(data) < len(codecMagic) {
			return nil, fmt.Errorf("provenance: reading magic: %w", rerr)
		}
		return nil, rerr
	}
	return s, err
}

// DecodeBytes parses a set from data in one pass; the set does not retain
// data. Every count in the input only bounds a loop over the bytes that
// follow it: no allocation is sized by a count beyond what the rest of the
// input can hold, so a short hostile input cannot make it allocate much
// more than its own length. A vocabulary that names one variable twice is
// rejected, since it would relabel every later variable, and so is a term
// that repeats a variable with exponents summing past 2^31−1, which an
// exponent cannot hold.
//
// Every term goes through one SetBuilder as read, so the set's kernel is
// built in the pass that reads it; a first walk over the terms sizes the
// kernel's arrays, so they never grow. A term whose (Var, Pow) pairs are
// not strictly ascending is put in canonical form first — pairs sorted,
// a repeated variable's exponents added — and terms merge as a
// hand-built polynomial's would (see SetBuilder).
func DecodeBytes(data []byte) (*Set, error) {
	d := decoder{data: data}
	if len(data) < len(codecMagic) {
		return nil, fmt.Errorf("provenance: reading magic: %w", d.short())
	}
	if string(data[:len(codecMagic)]) != codecMagic {
		return nil, fmt.Errorf("provenance: bad magic %q", data[:len(codecMagic)])
	}
	d.off = len(codecMagic)
	if d.off == len(data) {
		return nil, io.EOF
	}
	if ver := data[d.off]; ver != codecVersion {
		return nil, fmt.Errorf("provenance: unsupported version %d", ver)
	}
	d.off++

	nvars, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	n := d.capped(nvars, 2) // names are distinct: all but an empty one take two bytes or more
	vb := &Vocab{names: make([]string, 0, n), ids: make(map[string]Var, n)}
	for i := uint64(0); i < nvars; i++ {
		name, err := d.bytes()
		if err != nil {
			return nil, err
		}
		if _, dup := vb.ids[string(name)]; dup {
			return nil, fmt.Errorf("provenance: variable name %q appears twice in the vocabulary", name)
		}
		str := string(name)
		vb.names = append(vb.names, str)
		vb.ids[str] = Var(len(vb.names))
	}

	npolys, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	n = d.capped(npolys, 2) // a polynomial takes at least its tag length and term count
	nterms, npairs := d.count(npolys)
	b := NewSetBuilder(vb, n, nterms, npairs)
	tags := make([]string, 0, n)
	var key []byte
	var pairs []VarPow
	for i := uint64(0); i < npolys; i++ {
		tag, err := d.bytes()
		if err != nil {
			return nil, err
		}
		nterms, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		b.Poly()
		for t := uint64(0); t < nterms; t++ {
			if len(data)-d.off < 8 {
				return nil, d.short()
			}
			coeff := math.Float64frombits(binary.LittleEndian.Uint64(data[d.off:]))
			d.off += 8
			nvp, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			key, pairs = key[:0], pairs[:0]
			ascending := true
			for j := uint64(0); j < nvp; j++ {
				v, err := d.varint()
				if err != nil {
					return nil, err
				}
				pw, err := d.uvarint()
				if err != nil {
					return nil, err
				}
				if v <= 0 || v > int64(vb.Len()) {
					return nil, fmt.Errorf("provenance: variable %d out of range", v)
				}
				if pw == 0 || pw > math.MaxInt32 {
					return nil, fmt.Errorf("provenance: exponent %d out of range", pw)
				}
				if n := len(pairs); n > 0 && pairs[n-1].Var >= Var(v) {
					ascending = false
				}
				pairs = append(pairs, VarPow{Var: Var(v), Pow: int32(pw)})
				key = binary.AppendVarint(key, v)
				key = binary.AppendUvarint(key, pw)
			}
			if !ascending {
				var over int64
				if pairs, over = canonicalPairs(pairs); over != 0 {
					return nil, fmt.Errorf("provenance: exponent %d out of range", over)
				}
				key = AppendKey(key[:0], pairs)
			}
			b.Term(key, coeff, pairs)
		}
		tags = append(tags, string(tag))
	}
	return b.Set(tags), nil
}

// count walks the polynomials that follow as DecodeBytes reads them,
// checking nothing, and returns how many terms and (Var, Pow) pairs the
// input holds before it ends: sizes for the kernel's arrays, each bounded
// by the bytes it was counted from.
func (d decoder) count(npolys uint64) (terms, pairs int) {
	for ; npolys > 0; npolys-- {
		if _, err := d.bytes(); err != nil {
			return
		}
		nterms, err := d.uvarint()
		if err != nil {
			return
		}
		for ; nterms > 0; nterms-- {
			if len(d.data)-d.off < 9 {
				return
			}
			d.off += 8
			nvp := uint64(d.data[d.off])
			if nvp < 0x80 {
				d.off++
			} else if nvp, err = d.uvarint(); err != nil {
				return
			}
			if nvp > uint64(len(d.data)-d.off) {
				return
			}
			data, off := d.data, d.off
			for need := 2 * nvp; need > 0; off++ { // a varint ends at its first byte below 0x80
				if off == len(data) {
					return
				}
				if data[off] < 0x80 {
					need--
				}
			}
			d.off = off
			terms++
			pairs += int(nvp)
		}
	}
	return
}

// decoder walks an encoded set held in memory. Its errors match those of
// the binary and io readers the format was first read with: io.EOF when
// the input ends before a field, io.ErrUnexpectedEOF when it ends inside
// one.
type decoder struct {
	data []byte
	off  int
}

// short is the error for a field cut off at the end of the input.
func (d *decoder) short() error {
	if d.off == len(d.data) {
		return io.EOF
	}
	return io.ErrUnexpectedEOF
}

// capped bounds a declared count by how many items of at least least bytes
// the rest of the input can hold, for sizing an allocation up front.
func (d *decoder) capped(n uint64, least int) int {
	return int(min(n, uint64((len(d.data)-d.off)/least)))
}

var errVarintOverflow = errors.New("binary: varint overflows a 64-bit integer")

func (d *decoder) uvarint() (uint64, error) {
	if d.off < len(d.data) && d.data[d.off] < 0x80 { // one byte: most fields
		d.off++
		return uint64(d.data[d.off-1]), nil
	}
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		if n == 0 {
			return 0, d.short()
		}
		return 0, errVarintOverflow
	}
	d.off += n
	return v, nil
}

func (d *decoder) varint() (int64, error) {
	ux, err := d.uvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x, err
}

// bytes reads a length-prefixed string, returning a view into the input.
func (d *decoder) bytes() ([]byte, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > 1<<24 {
		return nil, fmt.Errorf("provenance: unreasonable string length %d", n)
	}
	if n > uint64(len(d.data)-d.off) {
		return nil, d.short()
	}
	b := d.data[d.off : d.off+int(n)]
	d.off += int(n)
	return b, nil
}

// readAll reads r to its end or its first error, into a buffer sized from
// r's length when r reports one, as a bytes.Reader does.
func readAll(r io.Reader) ([]byte, error) {
	size := 0
	if lr, ok := r.(interface{ Len() int }); ok {
		size = lr.Len()
	}
	var buf bytes.Buffer
	buf.Grow(size + bytes.MinRead)
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// EncodedSize returns the number of bytes Encode would produce. It is the
// storage/communication-cost measure used in the compression-gain reports.
func EncodedSize(s *Set) int {
	cw := &countWriter{}
	if err := Encode(cw, s); err != nil {
		// Encoding to a counter cannot fail; a failure indicates a bug.
		panic(err)
	}
	return cw.n
}

type countWriter struct{ n int }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += len(p)
	return len(p), nil
}

func writeUvarint(w *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n])
}

func writeVarint(w *bufio.Writer, v int64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], v)
	w.Write(buf[:n])
}

func writeString(w *bufio.Writer, s string) {
	writeUvarint(w, uint64(len(s)))
	w.WriteString(s)
}
