// Package wire implements dmb1, the toolkit's compact binary dataset
// codec for batched scoring. One dmb1 block carries a whole dataset —
// schema plus length-prefixed columnar value blocks, one contiguous
// float64 slice per attribute — so a classifyBatch call ships N rows in
// a single SOAP part and the server decodes straight into the columnar
// layout the scoring loops iterate.
//
// Layout (all integers little-endian):
//
//	"DMB1"            magic (4 bytes)
//	u8  version       currently 1
//	u8  flags         bit0: weights block present
//	str relation      length-prefixed UTF-8 (u32 length)
//	u32 classIndex    0xFFFFFFFF encodes "no class"
//	u32 attrCount
//	per attribute:
//	  str name
//	  u8  kind        0 numeric, 1 nominal, 2 string
//	  u32 valueCount  then valueCount length-prefixed labels
//	[8]byte digest    first 8 bytes of sha256 over the schema section
//	u32 rows
//	per attribute:    u32 byte length, then rows float64 values
//	                  (missing = NaN, canonicalised on encode)
//	weights block     same framing, present iff flags bit0
//
// The schema digest lets a decoder reject payloads whose schema bytes
// were corrupted in transit before it trusts any column framing derived
// from them. The result direction uses a sibling block, "DMR1": labels
// plus per-class distribution columns (see MarshalResult).
package wire

import (
	"bytes"
	"crypto/sha256"
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"math"
	"strings"

	"repro/internal/bufpool"
	"repro/internal/dataset"
)

// Format errors. Decoders wrap them with positional context; transports
// map any *FormatError to a caller fault (the payload is wrong, not the
// server).
type FormatError struct{ msg string }

func (e *FormatError) Error() string { return "wire: " + e.msg }

func errf(format string, args ...any) error {
	return &FormatError{msg: fmt.Sprintf(format, args...)}
}

const (
	magicDataset = "DMB1"
	magicResult  = "DMR1"
	version      = 1

	flagWeights = 1 << 0

	noClass = 0xFFFFFFFF

	// maxPooled caps the scratch buffers kept for reuse between calls.
	maxPooled = 4 << 20
)

// Encoding is the value of the SOAP `encoding` part that selects this
// codec on batch operations.
const Encoding = "dmb1"

// scratch holds the raw blocks the base64 wrappers encode into and
// decode out of. Decoders copy everything they keep, so a block's
// buffer goes back as soon as its decoder returns.
var scratch = bufpool.New(maxPooled)

// grow returns b with room for n more bytes, allocating at most once
// and exactly what is asked for, so an encoder that presizes its block
// makes one allocation of the block's size.
func grow(b []byte, n int) []byte {
	if cap(b)-len(b) >= n {
		return b
	}
	return append(make([]byte, 0, len(b)+n), b...)
}

// writer appends to a buffer its encoder presized exactly.
type writer struct{ buf []byte }

func (w *writer) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *writer) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *writer) str(s string) {
	w.u32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// column appends a length-prefixed float64 block as one run, missing
// values as the canonical NaN.
func (w *writer) column(col []float64) {
	w.u32(uint32(8 * len(col)))
	off := len(w.buf)
	w.buf = grow(w.buf, 8*len(col))[:off+8*len(col)]
	b := w.buf[off:]
	for i, v := range col {
		if v != v {
			v = math.NaN()
		}
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
}

// reader decodes a block with a sticky error: after the first failure
// every read returns zero values, so decoders check err only where it
// matters — before they allocate, and at the end.
type reader struct {
	buf []byte
	off int
	err error
}

// need reports whether n more bytes are left, recording a truncation
// error when they are not.
func (r *reader) need(n uint64) bool {
	if r.err != nil {
		return false
	}
	if n > uint64(len(r.buf)-r.off) {
		r.err = errf("truncated payload at offset %d (need %d of %d bytes)", r.off, n, len(r.buf))
		return false
	}
	return true
}

func (r *reader) u8() uint8 {
	if !r.need(1) {
		return 0
	}
	r.off++
	return r.buf[r.off-1]
}

func (r *reader) u32() uint32 {
	if !r.need(4) {
		return 0
	}
	r.off += 4
	return binary.LittleEndian.Uint32(r.buf[r.off-4:])
}

func (r *reader) str() string {
	n := r.u32()
	if !r.need(uint64(n)) {
		return ""
	}
	r.off += int(n)
	return string(r.buf[r.off-int(n) : r.off])
}

// count reads a u32 element count and bounds it by the bytes left: the
// elements need at least fixed bytes plus each per element. A corrupt
// count fails here, before it can size an allocation the payload does
// not back.
func (r *reader) count(each, fixed uint64) int {
	n := uint64(r.u32())
	left := uint64(len(r.buf) - r.off)
	if r.err == nil && (fixed > left || each > 0 && n > (left-fixed)/each) {
		r.err = errf("count %d at offset %d needs more than the %d bytes left", n, r.off-4, left)
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// column reads a length-prefixed float64 block of exactly len(dst)
// values into dst as one bounds-checked run.
func (r *reader) column(dst []float64) {
	n := r.u32()
	if r.err == nil && uint64(n) != 8*uint64(len(dst)) {
		r.err = errf("column block is %d bytes, want %d for %d rows", n, 8*len(dst), len(dst))
	}
	if !r.need(uint64(n)) {
		return
	}
	b := r.buf[r.off : r.off+int(n)]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	r.off += int(n)
}

// columns reads k float64 blocks of rows values each, carved from one
// slab. The caller bounds k and rows by the bytes left first.
func (r *reader) columns(k, rows int) [][]float64 {
	slab := make([]float64, k*rows)
	cols := make([][]float64, k)
	for j := range cols {
		cols[j] = slab[j*rows : (j+1)*rows : (j+1)*rows]
		r.column(cols[j])
	}
	return cols
}

// indices reads a length-prefixed block of rows u32 indices, each below
// limit; with noise, 0xFFFFFFFF decodes as -1.
func (r *reader) indices(rows int, limit uint32, noise bool, what string) []int {
	n := r.u32()
	if r.err == nil && uint64(n) != 4*uint64(rows) {
		r.err = errf("%s block is %d bytes, want %d for %d rows", what, n, 4*rows, rows)
	}
	if !r.need(uint64(n)) {
		return nil
	}
	b := r.buf[r.off : r.off+int(n)]
	out := make([]int, rows)
	for i := range out {
		v := binary.LittleEndian.Uint32(b[4*i:])
		switch {
		case noise && v == noAssign:
			out[i] = -1
		case v >= limit:
			r.err = errf("row %d %s %d out of range for %d", i, what, v, limit)
			return nil
		default:
			out[i] = int(v)
		}
	}
	r.off += int(n)
	return out
}

// open starts decoding a block: it checks the magic and version.
func open(b []byte, magic, name string) *reader {
	r := &reader{buf: b}
	switch {
	case !r.need(4):
	case string(b[:4]) != magic:
		r.err = errf("bad magic %q, want %q", b[:4], magic)
	default:
		r.off = 4
		if v := r.u8(); r.err == nil && v != version {
			r.err = errf("unsupported %s version %d", name, v)
		}
	}
	return r
}

// end finishes decoding: the first error, or trailing bytes, fail it.
func (r *reader) end(what string) error {
	if r.err == nil && r.off != len(r.buf) {
		r.err = errf("%d trailing bytes after %s", len(r.buf)-r.off, what)
	}
	return r.err
}

func kindCode(k dataset.Kind) (uint8, error) {
	switch k {
	case dataset.Numeric:
		return 0, nil
	case dataset.Nominal:
		return 1, nil
	case dataset.String:
		return 2, nil
	default:
		return 0, errf("unsupported attribute kind %v", k)
	}
}

// schemaSize is the encoded length of the schema section, digest included.
func schemaSize(relation string, attrs []*dataset.Attribute) int {
	n := 4 + len(relation) + 4 + 4 + 8
	for _, a := range attrs {
		n += 4 + len(a.Name) + 1 + 4
		for i := 0; i < a.NumValues(); i++ {
			n += 4 + len(a.Value(i))
		}
	}
	return n
}

// writeSchema appends the schema section (relation through attribute
// table) followed by its digest.
func writeSchema(w *writer, relation string, classIndex int, attrs []*dataset.Attribute) error {
	start := len(w.buf)
	w.str(relation)
	ci := uint32(noClass)
	if classIndex >= 0 {
		ci = uint32(classIndex)
	}
	w.u32(ci)
	w.u32(uint32(len(attrs)))
	for _, a := range attrs {
		w.str(a.Name)
		kc, err := kindCode(a.Kind)
		if err != nil {
			return err
		}
		w.u8(kc)
		w.u32(uint32(a.NumValues()))
		for i := 0; i < a.NumValues(); i++ {
			w.str(a.Value(i))
		}
	}
	sum := sha256.Sum256(w.buf[start:])
	w.buf = append(w.buf, sum[:8]...)
	return nil
}

// readSchema parses the schema section, verifying its digest.
func readSchema(r *reader) (relation string, classIndex int, attrs []*dataset.Attribute) {
	start := r.off
	relation = r.str()
	ci := r.u32()
	// An attribute takes at least a name length, a kind and a value count.
	attrs = make([]*dataset.Attribute, 0, r.count(9, 8))
	for i := 0; i < cap(attrs) && r.err == nil; i++ {
		name := r.str()
		kc := r.u8()
		vals := make([]string, r.count(4, 0))
		for v := range vals {
			vals[v] = r.str()
		}
		if r.err != nil {
			break
		}
		var a *dataset.Attribute
		switch kc {
		case 0:
			a = dataset.NewNumericAttribute(name)
		case 1:
			a = dataset.NewNominalAttribute(name, vals...)
		case 2:
			a = dataset.NewStringAttribute(name)
			for _, s := range vals {
				if _, err := a.Intern(s); err != nil {
					r.err = errf("attribute %q: %v", name, err)
				}
			}
		default:
			r.err = errf("unknown attribute kind code %d", kc)
		}
		attrs = append(attrs, a)
	}
	schemaEnd := r.off
	if r.need(8) {
		if sum := sha256.Sum256(r.buf[start:schemaEnd]); !bytes.Equal(sum[:8], r.buf[schemaEnd:schemaEnd+8]) {
			r.err = errf("schema digest mismatch: payload corrupt")
		}
		r.off += 8
	}
	classIndex = -1
	if ci != noClass {
		classIndex = int(ci)
	}
	if r.err == nil && classIndex >= len(attrs) {
		r.err = errf("class index %d out of range for %d attributes", classIndex, len(attrs))
	}
	return relation, classIndex, attrs
}

// Marshal encodes the dataset as one dmb1 block. Weights are encoded
// only when any instance weight differs from 1.
func Marshal(d *dataset.Dataset) ([]byte, error) { return appendDataset(nil, d) }

func appendDataset(b []byte, d *dataset.Dataset) ([]byte, error) {
	flags, rows, ncols := uint8(0), len(d.Instances), len(d.Attrs)
	for _, in := range d.Instances {
		if in.Weight != 1 {
			flags, ncols = flagWeights, ncols+1
			break
		}
	}
	w := writer{buf: grow(b, 4+1+1+schemaSize(d.Relation, d.Attrs)+4+ncols*(4+8*rows))}
	w.buf = append(w.buf, magicDataset...)
	w.u8(version)
	w.u8(flags)
	if err := writeSchema(&w, d.Relation, d.ClassIndex, d.Attrs); err != nil {
		return nil, err
	}
	w.u32(uint32(rows))
	for _, col := range d.Columns() {
		w.column(col)
	}
	if flags&flagWeights != 0 {
		w.column(d.WeightsSlice())
	}
	return w.buf, nil
}

// Unmarshal decodes one dmb1 block into a column-backed dataset. Every
// column, the weights included, is carved from one slab that becomes
// the dataset's columnar backing; b is not retained.
// dataset.FromColumns validates nominal indices so corrupt payloads
// surface as errors, never panics.
func Unmarshal(b []byte) (*dataset.Dataset, error) {
	r := open(b, magicDataset, "dmb1")
	flags := r.u8()
	relation, classIndex, attrs := readSchema(r)
	ncols := uint64(len(attrs))
	if flags&flagWeights != 0 {
		ncols++
	}
	rows := r.count(8*ncols, 4*ncols)
	if r.err != nil {
		return nil, r.err
	}
	cols := r.columns(int(ncols), rows)
	if err := r.end("payload"); err != nil {
		return nil, err
	}
	var weights []float64
	if flags&flagWeights != 0 {
		weights, cols = cols[len(attrs)], cols[:len(attrs)]
	}
	d, err := dataset.FromColumns(relation, attrs, classIndex, cols, weights)
	if err != nil {
		return nil, errf("%v", err)
	}
	return d, nil
}

// Result is the decoded form of a DMR1 scoring-response block: one
// predicted label per input row plus the per-class distribution each
// prediction was taken from.
type Result struct {
	Classes       []string    // class label names, distribution column order
	Labels        []int       // per-row argmax index into Classes
	Distributions [][]float64 // Distributions[c][i] = P(class c | row i)
}

// MarshalResult encodes a scoring result as one DMR1 block:
//
//	"DMR1" u8 version
//	u32 classCount, then classCount length-prefixed names
//	u32 rows
//	labels block: u32 byte length, rows u32 indices
//	per class: length-prefixed float64 column of rows probabilities
func MarshalResult(res *Result) ([]byte, error) { return appendResult(nil, res) }

func appendResult(b []byte, res *Result) ([]byte, error) {
	rows := len(res.Labels)
	if len(res.Distributions) != len(res.Classes) {
		return nil, errf("%d distribution columns for %d classes", len(res.Distributions), len(res.Classes))
	}
	for c, col := range res.Distributions {
		if len(col) != rows {
			return nil, errf("class %d distribution has %d rows, want %d", c, len(col), rows)
		}
	}
	size := 4 + 1 + 4 + 4 + 4 + 4*rows + len(res.Classes)*(4+8*rows)
	for _, name := range res.Classes {
		size += 4 + len(name)
	}
	w := writer{buf: grow(b, size)}
	w.buf = append(w.buf, magicResult...)
	w.u8(version)
	w.u32(uint32(len(res.Classes)))
	for _, name := range res.Classes {
		w.str(name)
	}
	w.u32(uint32(rows))
	w.u32(uint32(4 * rows))
	for _, l := range res.Labels {
		if l < 0 || l >= len(res.Classes) {
			return nil, errf("label %d out of range for %d classes", l, len(res.Classes))
		}
		w.u32(uint32(l))
	}
	for _, col := range res.Distributions {
		w.column(col)
	}
	return w.buf, nil
}

// UnmarshalResult decodes one DMR1 block.
func UnmarshalResult(b []byte) (*Result, error) {
	r := open(b, magicResult, "dmr1")
	classes := make([]string, r.count(4, 0))
	for i := range classes {
		classes[i] = r.str()
	}
	k := uint64(len(classes))
	// A row costs a label and one cell per class; the blocks cost their
	// length prefixes.
	rows := r.count(4+8*k, 4+4*k)
	labels := r.indices(rows, uint32(k), false, "label")
	if r.err != nil {
		return nil, r.err
	}
	dists := r.columns(len(classes), rows)
	if err := r.end("result"); err != nil {
		return nil, err
	}
	return &Result{Classes: classes, Labels: labels, Distributions: dists}, nil
}

// encodeBase64 encodes v into a pooled scratch buffer, then
// base64-encodes that once, straight into the returned string.
func encodeBase64[T any](v T, enc func([]byte, T) ([]byte, error)) (string, error) {
	b, err := enc(scratch.Get(0), v)
	if err != nil {
		return "", err
	}
	var s strings.Builder
	s.Grow(base64.StdEncoding.EncodedLen(len(b)))
	e := base64.NewEncoder(base64.StdEncoding, &s)
	_, _ = e.Write(b)
	_ = e.Close()
	scratch.Put(b)
	return s.String(), nil
}

// decodeBase64 base64-decodes s into a pooled scratch buffer and runs
// dec over the block; decoders copy out what they keep, so the buffer
// is recycled when dec returns. s is first copied into the scratch too:
// the decoder reads bytes, and that copy is cheaper than []byte(s)'s
// allocation. Line breaks in s are ignored.
func decodeBase64[T any](s, what string, dec func([]byte) (T, error)) (T, error) {
	buf := scratch.Get(len(s) + base64.StdEncoding.DecodedLen(len(s)))
	src := append(buf, s...)
	n, err := base64.StdEncoding.Decode(src[len(s):cap(src)], src)
	var v T
	if err != nil {
		err = errf("%s is not valid base64: %v", what, err)
	} else {
		v, err = dec(src[len(s) : len(s)+n])
	}
	scratch.Put(buf)
	return v, err
}

// MarshalBase64 encodes the dataset and wraps it in standard base64 for
// transport as an XML-safe SOAP part.
func MarshalBase64(d *dataset.Dataset) (string, error) { return encodeBase64(d, appendDataset) }

// UnmarshalBase64 decodes a base64-wrapped dmb1 block.
func UnmarshalBase64(s string) (*dataset.Dataset, error) {
	return decodeBase64(s, "payload", Unmarshal)
}

// MarshalResultBase64 encodes a scoring result base64-wrapped.
func MarshalResultBase64(res *Result) (string, error) { return encodeBase64(res, appendResult) }

// UnmarshalResultBase64 decodes a base64-wrapped DMR1 block.
func UnmarshalResultBase64(s string) (*Result, error) {
	return decodeBase64(s, "result", UnmarshalResult)
}
