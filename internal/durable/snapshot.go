package durable

// The snapshot codec: one session's full state as a versioned, sectioned,
// CRC32-C-checksummed binary file. Layout:
//
//	magic "PVSN" | u16 LE version | u16 LE flags | u64 LE lastSeq |
//	u32 LE section count | u32 LE CRC32-C of the 20 header bytes
//
// followed by sections, each
//
//	u32 LE id | u32 LE payload length | payload | u32 LE CRC32-C(payload)
//
// Sections (ids fixed, order as listed, unknown ids rejected):
//
//	1 vocab     interned names in order
//	2 meta      compressed flag, strategy, ML/VL, adequacy
//	3 subst     the active substitution, sorted by source var
//	4 kernel    the active set's compiled dump: counts, then fixed-width
//	            LE arrays (polyOff, factOff, coeffs, vars, pows) and tags
//	            — mmap-friendly: every array is contiguous and aligned to
//	            its own start
//	5 baseline  identity answers, one f64 per polynomial
//	6 index     the CSR inverted index's four arrays
//	7 source    the un-abstracted source polynomials (present only when
//	            compressed; shares the snapshot vocabulary)
//	8 forest    abstraction trees in compact text (optional)
//
// The decoder validates everything through provenance.RestoreSet — a
// snapshot that passes CRC but describes an inconsistent kernel is still
// rejected — and never panics on hostile input (FuzzSnapshotDecode).

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"

	"provabs/internal/provenance"
	"provabs/internal/session"
)

const (
	snapshotMagic   = "PVSN"
	snapshotVersion = 1

	secVocab    uint32 = 1
	secMeta     uint32 = 2
	secSubst    uint32 = 3
	secKernel   uint32 = 4
	secBaseline uint32 = 5
	secIndex    uint32 = 6
	secSource   uint32 = 7
	secForest   uint32 = 8

	// maxSectionLen bounds one snapshot section so a corrupt length field
	// cannot drive a giant allocation.
	maxSectionLen = 1 << 31
)

// EncodeSnapshot writes the session state as one snapshot covering WAL
// records up to and including lastSeq. The caller must hold the state
// stable (Engine.WithState does).
func EncodeSnapshot(w io.Writer, st *session.SnapshotState, lastSeq uint64) error {
	if st == nil || st.Source == nil || st.Active == nil {
		return fmt.Errorf("durable: EncodeSnapshot needs source and active sets")
	}
	vb := st.Active.Vocab
	dump := provenance.DumpCompiled(st.Active.Compiled())

	type section struct {
		id      uint32
		payload []byte
	}
	var sections []section
	add := func(id uint32, payload []byte) {
		sections = append(sections, section{id, payload})
	}

	// 1 vocab
	var buf []byte
	buf = binary.AppendUvarint(buf, uint64(vb.Len()))
	for i := 1; i <= vb.Len(); i++ {
		name := vb.Name(provenance.Var(i))
		buf = binary.AppendUvarint(buf, uint64(len(name)))
		buf = append(buf, name...)
	}
	add(secVocab, buf)

	// 2 meta
	buf = nil
	buf = append(buf, boolByte(st.Compressed))
	buf = binary.AppendUvarint(buf, uint64(len(st.Strategy)))
	buf = append(buf, st.Strategy...)
	buf = binary.AppendVarint(buf, int64(st.ML))
	buf = binary.AppendVarint(buf, int64(st.VL))
	buf = append(buf, boolByte(st.Adequate))
	add(secMeta, buf)

	// 3 subst
	buf = nil
	pairs := make([][2]provenance.Var, 0, len(st.Subst))
	for from, to := range st.Subst {
		pairs = append(pairs, [2]provenance.Var{from, to})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i][0] < pairs[j][0] })
	buf = binary.AppendUvarint(buf, uint64(len(pairs)))
	for _, p := range pairs {
		buf = binary.AppendUvarint(buf, uint64(p[0]))
		buf = binary.AppendUvarint(buf, uint64(p[1]))
	}
	add(secSubst, buf)

	// 4 kernel
	buf = nil
	buf = binary.AppendUvarint(buf, uint64(dump.NPolys()))
	buf = binary.AppendUvarint(buf, uint64(len(dump.Coeffs)))
	buf = binary.AppendUvarint(buf, uint64(len(dump.Vars)))
	buf = appendI32s(buf, dump.PolyOff)
	buf = appendI32s(buf, dump.FactOff)
	for _, c := range dump.Coeffs {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c))
	}
	for _, v := range dump.Vars {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	buf = appendI32s(buf, dump.Pows)
	for _, t := range dump.Tags {
		buf = binary.AppendUvarint(buf, uint64(len(t)))
		buf = append(buf, t...)
	}
	add(secKernel, buf)

	// 5 baseline
	buf = nil
	for _, x := range dump.Baseline {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
	}
	add(secBaseline, buf)

	// 6 index
	buf = nil
	for _, arr := range [][]int32{dump.VarTermOff, dump.VarPolyOff, dump.VarPolyIDs, dump.VarPolyTerms} {
		buf = binary.AppendUvarint(buf, uint64(len(arr)))
	}
	for _, arr := range [][]int32{dump.VarTermOff, dump.VarPolyOff, dump.VarPolyIDs, dump.VarPolyTerms} {
		buf = appendI32s(buf, arr)
	}
	add(secIndex, buf)

	// 7 source (only when the source differs from the active set)
	if st.Compressed {
		src := st.Source.Compiled().TermArrays()
		buf = nil
		buf = binary.AppendUvarint(buf, uint64(st.Source.Len()))
		for i := range st.Source.Len() {
			tag := ""
			if i < len(st.Source.Tags) {
				tag = st.Source.Tags[i]
			}
			buf = binary.AppendUvarint(buf, uint64(len(tag)))
			buf = append(buf, tag...)
			buf = appendPoly(buf, src, i)
		}
		add(secSource, buf)
	}

	// 8 forest
	if len(st.Trees) > 0 {
		buf = nil
		buf = binary.AppendUvarint(buf, uint64(len(st.Trees)))
		for _, t := range st.Trees {
			buf = binary.AppendUvarint(buf, uint64(len(t)))
			buf = append(buf, t...)
		}
		add(secForest, buf)
	}

	bw := bufio.NewWriterSize(w, 1<<20)
	header := make([]byte, 0, 24)
	header = append(header, snapshotMagic...)
	header = binary.LittleEndian.AppendUint16(header, snapshotVersion)
	header = binary.LittleEndian.AppendUint16(header, 0) // flags
	header = binary.LittleEndian.AppendUint64(header, lastSeq)
	header = binary.LittleEndian.AppendUint32(header, uint32(len(sections)))
	header = binary.LittleEndian.AppendUint32(header, crc32.Checksum(header, castagnoli))
	if _, err := bw.Write(header); err != nil {
		return err
	}
	for _, s := range sections {
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[0:], s.id)
		binary.LittleEndian.PutUint32(hdr[4:], uint32(len(s.payload)))
		if _, err := bw.Write(hdr[:]); err != nil {
			return err
		}
		if _, err := bw.Write(s.payload); err != nil {
			return err
		}
		var sum [4]byte
		binary.LittleEndian.PutUint32(sum[:], crc32.Checksum(s.payload, castagnoli))
		if _, err := bw.Write(sum[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// DecodeSnapshot reads and fully validates a snapshot, returning the
// reconstructed session state (the active set's kernel warm, its index
// and baseline checked against the snapshot's) and the last WAL sequence
// number the snapshot covers. No section builds a Polynomial: the kernel
// section becomes the active set through provenance.RestoreSet, the
// source section is decoded into its kernel arrays (decodeSource).
func DecodeSnapshot(r io.Reader) (*session.SnapshotState, uint64, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	header := make([]byte, 24)
	if _, err := io.ReadFull(br, header); err != nil {
		return nil, 0, fmt.Errorf("%w: snapshot header: %v", ErrCorrupt, err)
	}
	if string(header[:4]) != snapshotMagic {
		return nil, 0, fmt.Errorf("%w: not a snapshot (bad magic)", ErrCorrupt)
	}
	if crc32.Checksum(header[:20], castagnoli) != binary.LittleEndian.Uint32(header[20:]) {
		return nil, 0, fmt.Errorf("%w: snapshot header checksum mismatch", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint16(header[4:]); v != snapshotVersion {
		return nil, 0, fmt.Errorf("durable: unsupported snapshot version %d (this build reads version %d)", v, snapshotVersion)
	}
	lastSeq := binary.LittleEndian.Uint64(header[8:])
	nSections := binary.LittleEndian.Uint32(header[16:])
	if nSections > 64 {
		return nil, 0, fmt.Errorf("%w: snapshot claims %d sections", ErrCorrupt, nSections)
	}

	payloads := make(map[uint32][]byte, nSections)
	for i := uint32(0); i < nSections; i++ {
		var hdr [8]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return nil, 0, fmt.Errorf("%w: snapshot section header: %v", ErrCorrupt, err)
		}
		id := binary.LittleEndian.Uint32(hdr[0:])
		n := binary.LittleEndian.Uint32(hdr[4:])
		if n > maxSectionLen {
			return nil, 0, fmt.Errorf("%w: snapshot section %d claims %d bytes", ErrCorrupt, id, n)
		}
		// Copy incrementally rather than allocating n upfront: a corrupt
		// length field must fail at EOF, not drive a gigabyte allocation.
		var pbuf bytes.Buffer
		if _, err := io.CopyN(&pbuf, br, int64(n)); err != nil {
			return nil, 0, fmt.Errorf("%w: snapshot section %d: %v", ErrCorrupt, id, err)
		}
		payload := pbuf.Bytes()
		var sum [4]byte
		if _, err := io.ReadFull(br, sum[:]); err != nil {
			return nil, 0, fmt.Errorf("%w: snapshot section %d checksum: %v", ErrCorrupt, id, err)
		}
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(sum[:]) {
			return nil, 0, fmt.Errorf("%w: snapshot section %d checksum mismatch", ErrCorrupt, id)
		}
		if _, dup := payloads[id]; dup {
			return nil, 0, fmt.Errorf("%w: duplicate snapshot section %d", ErrCorrupt, id)
		}
		payloads[id] = payload
	}
	for _, id := range []uint32{secVocab, secMeta, secSubst, secKernel, secBaseline, secIndex} {
		if _, ok := payloads[id]; !ok {
			return nil, 0, fmt.Errorf("%w: snapshot is missing section %d", ErrCorrupt, id)
		}
	}

	// 1 vocab
	vb := provenance.NewVocab()
	{
		r := &byteReader{b: payloads[secVocab]}
		n, err := r.uvarint()
		if err != nil {
			return nil, 0, err
		}
		if n > uint64(r.remaining()) {
			return nil, 0, fmt.Errorf("%w: vocab section claims %d names", ErrCorrupt, n)
		}
		for i := uint64(0); i < n; i++ {
			name, err := r.lenString(maxNameLen)
			if err != nil {
				return nil, 0, err
			}
			if vb.Var(name) != provenance.Var(i+1) {
				return nil, 0, fmt.Errorf("%w: duplicate vocabulary name %q", ErrCorrupt, name)
			}
		}
		if r.remaining() != 0 {
			return nil, 0, fmt.Errorf("%w: trailing bytes in vocab section", ErrCorrupt)
		}
	}

	st := &session.SnapshotState{}

	// 2 meta
	{
		r := &byteReader{b: payloads[secMeta]}
		cb, err := r.bytes(1)
		if err != nil {
			return nil, 0, err
		}
		st.Compressed = cb[0] != 0
		if st.Strategy, err = r.lenString(1 << 10); err != nil {
			return nil, 0, err
		}
		ml, err := r.varint()
		if err != nil {
			return nil, 0, err
		}
		vl, err := r.varint()
		if err != nil {
			return nil, 0, err
		}
		st.ML, st.VL = int(ml), int(vl)
		ab, err := r.bytes(1)
		if err != nil {
			return nil, 0, err
		}
		st.Adequate = ab[0] != 0
		if r.remaining() != 0 {
			return nil, 0, fmt.Errorf("%w: trailing bytes in meta section", ErrCorrupt)
		}
	}

	// 3 subst
	{
		r := &byteReader{b: payloads[secSubst]}
		n, err := r.uvarint()
		if err != nil {
			return nil, 0, err
		}
		if n > uint64(r.remaining()) {
			return nil, 0, fmt.Errorf("%w: subst section claims %d pairs", ErrCorrupt, n)
		}
		if n > 0 {
			st.Subst = make(map[provenance.Var]provenance.Var, n)
		}
		for i := uint64(0); i < n; i++ {
			from, err := r.uvarint()
			if err != nil {
				return nil, 0, err
			}
			to, err := r.uvarint()
			if err != nil {
				return nil, 0, err
			}
			if from == 0 || from > uint64(vb.Len()) || to == 0 || to > uint64(vb.Len()) {
				return nil, 0, fmt.Errorf("%w: substitution pair %d→%d outside the vocabulary", ErrCorrupt, from, to)
			}
			if _, dup := st.Subst[provenance.Var(from)]; dup {
				return nil, 0, fmt.Errorf("%w: duplicate substitution source %d", ErrCorrupt, from)
			}
			st.Subst[provenance.Var(from)] = provenance.Var(to)
		}
		if r.remaining() != 0 {
			return nil, 0, fmt.Errorf("%w: trailing bytes in subst section", ErrCorrupt)
		}
	}

	// 4-6 kernel + baseline + index → RestoreSet
	dump := &provenance.CompiledDump{}
	{
		r := &byteReader{b: payloads[secKernel]}
		nPolys, err := r.uvarint()
		if err != nil {
			return nil, 0, err
		}
		nTerms, err := r.uvarint()
		if err != nil {
			return nil, 0, err
		}
		nFactors, err := r.uvarint()
		if err != nil {
			return nil, 0, err
		}
		// Fixed-width arrays must be backed by the remaining payload.
		need := 4*(nPolys+1) + 4*(nTerms+1) + 8*nTerms + 4*nFactors + 4*nFactors
		if nPolys >= maxSectionLen || need > uint64(r.remaining()) {
			return nil, 0, fmt.Errorf("%w: kernel section counts exceed its payload", ErrCorrupt)
		}
		if dump.PolyOff, err = r.i32s(int(nPolys) + 1); err != nil {
			return nil, 0, err
		}
		if dump.FactOff, err = r.i32s(int(nTerms) + 1); err != nil {
			return nil, 0, err
		}
		dump.Coeffs = make([]float64, nTerms)
		for i := range dump.Coeffs {
			bits, err := r.u64()
			if err != nil {
				return nil, 0, err
			}
			dump.Coeffs[i] = math.Float64frombits(bits)
		}
		vars, err := r.i32s(int(nFactors))
		if err != nil {
			return nil, 0, err
		}
		dump.Vars = make([]provenance.Var, nFactors)
		for i, v := range vars {
			dump.Vars[i] = provenance.Var(v)
		}
		if dump.Pows, err = r.i32s(int(nFactors)); err != nil {
			return nil, 0, err
		}
		dump.Tags = make([]string, nPolys)
		for i := range dump.Tags {
			if dump.Tags[i], err = r.lenString(maxNameLen); err != nil {
				return nil, 0, err
			}
		}
		if r.remaining() != 0 {
			return nil, 0, fmt.Errorf("%w: trailing bytes in kernel section", ErrCorrupt)
		}

		rb := &byteReader{b: payloads[secBaseline]}
		if rb.remaining() != int(nPolys)*8 {
			return nil, 0, fmt.Errorf("%w: baseline section holds %d bytes for %d polynomials", ErrCorrupt, rb.remaining(), nPolys)
		}
		dump.Baseline = make([]float64, nPolys)
		for i := range dump.Baseline {
			bits, _ := rb.u64()
			dump.Baseline[i] = math.Float64frombits(bits)
		}

		ri := &byteReader{b: payloads[secIndex]}
		var lens [4]uint64
		for i := range lens {
			if lens[i], err = ri.uvarint(); err != nil {
				return nil, 0, err
			}
		}
		total := lens[0] + lens[1] + lens[2] + lens[3]
		if total*4 > uint64(ri.remaining()) {
			return nil, 0, fmt.Errorf("%w: index section counts exceed its payload", ErrCorrupt)
		}
		arrs := make([][]int32, 4)
		for i := range arrs {
			if arrs[i], err = ri.i32s(int(lens[i])); err != nil {
				return nil, 0, err
			}
		}
		dump.VarTermOff, dump.VarPolyOff, dump.VarPolyIDs, dump.VarPolyTerms = arrs[0], arrs[1], arrs[2], arrs[3]
		if ri.remaining() != 0 {
			return nil, 0, fmt.Errorf("%w: trailing bytes in index section", ErrCorrupt)
		}
	}
	active, err := provenance.RestoreSet(vb, dump)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	st.Active = active

	// 7 source
	srcPayload, hasSource := payloads[secSource]
	if st.Compressed != hasSource {
		return nil, 0, fmt.Errorf("%w: snapshot source section presence disagrees with the compressed flag", ErrCorrupt)
	}
	if hasSource {
		if st.Source, err = decodeSource(srcPayload, vb); err != nil {
			return nil, 0, err
		}
	} else {
		st.Source = active
	}

	// 8 forest
	if fp, ok := payloads[secForest]; ok {
		r := &byteReader{b: fp}
		n, err := r.uvarint()
		if err != nil {
			return nil, 0, err
		}
		if n > uint64(r.remaining()) {
			return nil, 0, fmt.Errorf("%w: forest section claims %d trees", ErrCorrupt, n)
		}
		for i := uint64(0); i < n; i++ {
			t, err := r.lenString(maxSectionLen)
			if err != nil {
				return nil, 0, err
			}
			st.Trees = append(st.Trees, t)
		}
		if r.remaining() != 0 {
			return nil, 0, fmt.Errorf("%w: trailing bytes in forest section", ErrCorrupt)
		}
	}

	return st, lastSeq, nil
}

// decodeSource parses the snapshot's source section straight into one
// provenance.SetBuilder, whose arrays a first walk (countSource) sizes, so
// the source kernel's arrays are allocated once. appendPoly writes each
// polynomial's terms in ascending key order, the builder's fast path.
func decodeSource(payload []byte, vb *provenance.Vocab) (*provenance.Set, error) {
	r := &byteReader{b: payload}
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.remaining())+1 {
		return nil, fmt.Errorf("%w: source section claims %d polynomials", ErrCorrupt, n)
	}
	terms, factors := countSource(*r, n)
	b := provenance.NewSetBuilder(vb, int(n), terms, factors)
	tags := make([]string, 0, n)
	var key []byte
	var buf []provenance.VarPow
	term := func(coeff float64, factors []provenance.VarPow) error {
		if err := checkFactors(factors, vb.Len()); err != nil {
			return err
		}
		key = provenance.AppendKey(key[:0], factors)
		b.Term(key, coeff, factors)
		return nil
	}
	for i := uint64(0); i < n; i++ {
		tag, err := r.lenString(maxNameLen)
		if err != nil {
			return nil, err
		}
		b.Poly()
		if buf, err = readPoly(r, buf, term); err != nil {
			return nil, err
		}
		tags = append(tags, tag)
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("%w: trailing bytes in source section", ErrCorrupt)
	}
	return b.Set(tags), nil
}

// countSource walks the n polynomials that follow as decodeSource reads
// them, checking nothing, and returns how many terms and factors the
// section holds before it ends: sizes for the source kernel's arrays, each
// bounded by the bytes it was counted from.
func countSource(r byteReader, n uint64) (terms, factors int) {
	for ; n > 0; n-- {
		tag, err := r.uvarint()
		if err != nil || tag > uint64(r.remaining()) {
			return
		}
		r.off += int(tag)
		nt, err := r.uvarint()
		if err != nil {
			return
		}
		for ; nt > 0; nt-- {
			if r.remaining() < 9 { // an 8-byte coefficient and a factor count
				return
			}
			r.off += 8
			nf, err := r.uvarint()
			if err != nil || nf > uint64(r.remaining()) {
				return
			}
			for need := 2 * nf; need > 0; r.off++ { // a varint ends at its first byte below 0x80
				if r.off == len(r.b) {
					return
				}
				if r.b[r.off] < 0x80 {
					need--
				}
			}
			terms++
			factors += int(nf)
		}
	}
	return
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

func appendI32s(dst []byte, xs []int32) []byte {
	for _, x := range xs {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(x))
	}
	return dst
}

// varint reads a signed varint.
func (r *byteReader) varint() (int64, error) {
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad varint", ErrCorrupt)
	}
	r.off += n
	return v, nil
}

// i32s reads n little-endian 32-bit values.
func (r *byteReader) i32s(n int) ([]int32, error) {
	if n < 0 || r.remaining() < 4*n {
		return nil, fmt.Errorf("%w: truncated i32 array", ErrCorrupt)
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(r.b[r.off:]))
		r.off += 4
	}
	return out, nil
}
