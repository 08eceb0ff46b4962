// Package codec is the versioned binary wire format of the persistent
// summary store: per-procedure summaries (their positional entry
// frames, call-site values and flags), each wrapped in a
// self-describing frame.
//
// Frame layout (all integers little-endian):
//
//	offset  size  field
//	     0     4  magic "FSCP"
//	     4     2  format version (Version)
//	     6     1  payload kind (KindSummary)
//	     7     1  reserved (0)
//	     8     8  key hash (FNV-64a of the full store key)
//	    16     8  generation stamp (store run counter)
//	    24     4  payload length
//	    28     n  payload
//	  28+n     4  CRC-32C over bytes [0, 28+n)
//
// The header is self-describing (magic + version + kind + length) and
// the trailing checksum covers header and payload, so truncation, bit
// flips, and version skew are all detected before any payload byte is
// trusted. Decoding never panics on hostile input: every failure is an
// error the store maps to a cache miss.
//
// Payload encodings use unsigned varints (zigzag for signed values)
// and IEEE-754 bit patterns for reals — decode(encode(x)) is identical
// to x down to float bit patterns, which the determinism invariants
// (byte-identical reports warm vs cold) depend on. Every payload field
// is positional (an entry frame is a count and its elements in slot
// order; the store key fixes the layout), so equal summaries always
// produce equal bytes.
package codec

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"hash/fnv"
	"math"

	"fsicp/internal/ast"
	"fsicp/internal/incr"
	"fsicp/internal/lattice"
	"fsicp/internal/val"
)

// Version is the current format version. Any incompatible change to a
// payload encoding must bump it; readers reject other versions
// (ErrVersion), which the store treats as "recompute and overwrite".
// Version 2 switched per-site global values from one element per
// program global to sparse (index, value) pairs over the callee's REF
// set; version 3 switched the entry environment from name→value pairs
// to a positional frame.
const Version = 3

// KindSummary is the payload kind of an incr.ProcSummary frame, the
// only kind the store writes.
const KindSummary = 1

// Errors. ErrVersion is distinguished from ErrCorrupt so callers can
// count version skew separately if they care; both mean "unusable
// frame, recompute".
var (
	ErrCorrupt = errors.New("codec: corrupt frame")
	ErrVersion = errors.New("codec: format version mismatch")
)

// Meta is the frame metadata the store stamps on each entry: the
// FNV-64a hash of the full store key (guards against files served
// under the wrong name) and the store generation that wrote the entry
// (drives eviction ordering).
type Meta struct {
	KeyHash uint64
	Gen     uint64
}

// HashKey returns the FNV-64a hash of a store key, the value carried
// in Meta.KeyHash.
func HashKey(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return h.Sum64()
}

const (
	magic     = "FSCP"
	headerLen = 28
	crcLen    = 4
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// frame wraps a summary payload in the versioned header + checksum.
func frame(meta Meta, payload []byte) []byte {
	buf := make([]byte, 0, headerLen+len(payload)+crcLen)
	buf = append(buf, magic...)
	buf = binary.LittleEndian.AppendUint16(buf, Version)
	buf = append(buf, KindSummary, 0)
	buf = binary.LittleEndian.AppendUint64(buf, meta.KeyHash)
	buf = binary.LittleEndian.AppendUint64(buf, meta.Gen)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, crcTable))
}

// unframe validates the header and checksum and returns the metadata
// and payload of a summary frame.
func unframe(data []byte) (Meta, []byte, error) {
	meta, kind, payload, err := peek(data)
	if err != nil {
		return Meta{}, nil, err
	}
	if kind != KindSummary {
		return Meta{}, nil, ErrCorrupt
	}
	end := headerLen + len(payload)
	if len(data) != end+crcLen {
		return Meta{}, nil, ErrCorrupt
	}
	want := binary.LittleEndian.Uint32(data[end:])
	if crc32.Checksum(data[:end], crcTable) != want {
		return Meta{}, nil, ErrCorrupt
	}
	return meta, payload, nil
}

// peek validates header structure only (magic, version, length bounds)
// — no checksum — and returns the metadata, kind, and payload slice.
func peek(data []byte) (Meta, byte, []byte, error) {
	if len(data) < headerLen+crcLen || string(data[:4]) != magic {
		return Meta{}, 0, nil, ErrCorrupt
	}
	if v := binary.LittleEndian.Uint16(data[4:]); v != Version {
		return Meta{}, 0, nil, ErrVersion
	}
	meta := Meta{
		KeyHash: binary.LittleEndian.Uint64(data[8:]),
		Gen:     binary.LittleEndian.Uint64(data[16:]),
	}
	n := int(binary.LittleEndian.Uint32(data[24:]))
	if n < 0 || n > len(data)-headerLen-crcLen {
		return Meta{}, 0, nil, ErrCorrupt
	}
	return meta, data[6], data[headerLen : headerLen+n], nil
}

// PeekMeta reads a frame's metadata without verifying its checksum —
// cheap enough for eviction scans, which only need the generation
// stamp and tolerate garbage (an unreadable frame sorts oldest).
func PeekMeta(data []byte) (Meta, error) {
	meta, _, _, err := peek(data)
	return meta, err
}

// ---- summaries ----

// Summary payload flag bits.
const (
	flagDead = 1 << iota
	flagDegraded
)

// EncodeSummary renders a procedure summary as one framed entry.
func EncodeSummary(meta Meta, s *incr.ProcSummary) []byte {
	var b []byte
	var flags byte
	if s.Dead {
		flags |= flagDead
	}
	if s.Degraded {
		flags |= flagDegraded
	}
	b = append(b, flags)
	b = binary.AppendUvarint(b, uint64(s.BackEdges))
	b = appendElems(b, s.Entry)
	b = binary.AppendUvarint(b, uint64(len(s.Sites)))
	for _, site := range s.Sites {
		if !site.Reachable {
			b = append(b, 0)
			continue
		}
		b = append(b, 1)
		b = appendElems(b, site.Args)
		b = appendGlobals(b, site.GlobIdx, site.GlobVals)
	}
	return frame(meta, b)
}

// DecodeSummary parses a framed summary, validating structure and
// checksum. The returned summary shares nothing with data.
func DecodeSummary(data []byte) (Meta, *incr.ProcSummary, error) {
	meta, payload, err := unframe(data)
	if err != nil {
		return Meta{}, nil, err
	}
	r := reader{buf: payload}
	flags := r.byte()
	s := &incr.ProcSummary{
		Dead:      flags&flagDead != 0,
		Degraded:  flags&flagDegraded != 0,
		BackEdges: int(r.uvarint()),
	}
	s.Entry = r.elems()
	if n := int(r.uvarint()); n > 0 {
		if n > len(payload) { // a site costs ≥ 1 payload byte
			return Meta{}, nil, ErrCorrupt
		}
		s.Sites = make([]incr.SiteValues, n)
		for i := range s.Sites {
			if r.byte() == 0 {
				continue // unreachable site: nil Args/globals
			}
			sv := incr.SiteValues{Reachable: true, Args: r.elems()}
			sv.GlobIdx, sv.GlobVals = r.globals()
			s.Sites[i] = sv
		}
	}
	if r.err != nil || len(r.buf) != 0 {
		return Meta{}, nil, ErrCorrupt
	}
	return meta, s, nil
}

// ---- lattice elements ----

// Element levels and value types are encoded as explicit tag bytes
// (not the in-memory enum values) so the wire format cannot drift when
// the Go declarations are reordered.
const (
	tagTop      = 0
	tagConstant = 1
	tagBottom   = 2

	tagInt  = 1
	tagReal = 2
	tagBool = 3
)

func appendElem(b []byte, e lattice.Elem) []byte {
	// Elements are canonical by construction, so Eq elements encode to
	// identical bytes.
	switch e.Level() {
	case lattice.Top:
		return append(b, tagTop)
	case lattice.Bottom:
		return append(b, tagBottom)
	}
	b = append(b, tagConstant)
	switch v := e.Val(); v.Type {
	case ast.TypeInt:
		b = append(b, tagInt)
		return binary.AppendVarint(b, v.I)
	case ast.TypeReal:
		b = append(b, tagReal)
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.R))
	case ast.TypeBool:
		b = append(b, tagBool)
		if v.B {
			return append(b, 1)
		}
		return append(b, 0)
	}
	// Untyped constants do not exist; encode as ⊥ so a decode of this
	// frame can never manufacture one.
	b[len(b)-1] = tagBottom
	return b
}

// appendGlobals renders a site's sparse global pairs: a count, then
// each global's declaration index (delta-encoded — GlobIdx is strictly
// ascending) followed by its element.
func appendGlobals(b []byte, idx []int32, vals []lattice.Elem) []byte {
	b = binary.AppendUvarint(b, uint64(len(idx)))
	prev := int32(0)
	for i, gi := range idx {
		b = binary.AppendUvarint(b, uint64(gi-prev))
		prev = gi
		b = appendElem(b, vals[i])
	}
	return b
}

func appendElems(b []byte, es []lattice.Elem) []byte {
	b = binary.AppendUvarint(b, uint64(len(es)))
	for _, e := range es {
		b = appendElem(b, e)
	}
	return b
}

// reader is a bounds-checked payload cursor. After the first error it
// returns zero values; callers check err once at the end.
type reader struct {
	buf []byte
	err error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = ErrCorrupt
	}
	r.buf = nil
}

func (r *reader) byte() byte {
	if len(r.buf) < 1 {
		r.fail()
		return 0
	}
	c := r.buf[0]
	r.buf = r.buf[1:]
	return c
}

func (r *reader) uvarint() uint64 {
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *reader) varint() int64 {
	v, n := binary.Varint(r.buf)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *reader) uint64() uint64 {
	if len(r.buf) < 8 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf)
	r.buf = r.buf[8:]
	return v
}

func (r *reader) elem() lattice.Elem {
	switch r.byte() {
	case tagTop:
		return lattice.TopElem()
	case tagBottom:
		return lattice.BottomElem()
	case tagConstant:
	default:
		r.fail()
		return lattice.Elem{}
	}
	switch r.byte() {
	case tagInt:
		return lattice.Const(val.Int(r.varint()))
	case tagReal:
		// lattice.Const maps NaN to ⊥, preserving the system-wide
		// invariant that no Constant NaN exists even if the bits came
		// from a frame that passed its checksum.
		return lattice.Const(val.Real(math.Float64frombits(r.uint64())))
	case tagBool:
		return lattice.Const(val.Bool(r.byte() != 0))
	}
	r.fail()
	return lattice.Elem{}
}

func (r *reader) elems() []lattice.Elem {
	n := int(r.uvarint())
	if n == 0 {
		return nil
	}
	if n > len(r.buf) { // an element costs ≥ 1 payload byte
		r.fail()
		return nil
	}
	es := make([]lattice.Elem, n)
	for i := range es {
		es[i] = r.elem()
	}
	return es
}

// globals decodes the sparse global pairs written by appendGlobals,
// rebuilding the strictly ascending index slice from the deltas.
func (r *reader) globals() ([]int32, []lattice.Elem) {
	n := int(r.uvarint())
	if n == 0 {
		return nil, nil
	}
	if n > len(r.buf) { // a pair costs ≥ 2 payload bytes
		r.fail()
		return nil, nil
	}
	idx := make([]int32, n)
	vals := make([]lattice.Elem, n)
	prev := int64(0)
	for i := range idx {
		d := r.uvarint()
		gi := prev + int64(d)
		if i > 0 && d == 0 || gi > 1<<31-1 {
			r.fail()
			return nil, nil
		}
		idx[i] = int32(gi)
		prev = gi
		vals[i] = r.elem()
	}
	return idx, vals
}
