package codec

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"math"
	"reflect"
	"slices"
	"testing"

	"fsicp/internal/incr"
	"fsicp/internal/lattice"
	"fsicp/internal/val"
)

func sampleSummary() *incr.ProcSummary {
	return &incr.ProcSummary{
		BackEdges: 3,
		Entry: []lattice.Elem{
			lattice.Const(val.Int(-42)),
			lattice.Const(val.Real(3.5)),
			lattice.Const(val.Bool(true)),
			lattice.Const(val.Bool(false)),
			lattice.TopElem(),
			lattice.BottomElem(),
		},
		Sites: []incr.SiteValues{
			{}, // unreachable
			{
				Reachable: true,
				Args:      []lattice.Elem{lattice.Const(val.Int(7)), lattice.BottomElem()},
				GlobIdx:   []int32{2, 7},
				GlobVals:  []lattice.Elem{lattice.Const(val.Real(math.Copysign(0, -1))), lattice.BottomElem()},
			},
			{Reachable: true},
		},
	}
}

func TestSummaryRoundTrip(t *testing.T) {
	want := sampleSummary()
	meta := Meta{KeyHash: HashKey("some\x00key"), Gen: 9}
	data := EncodeSummary(meta, want)
	gotMeta, got, err := DecodeSummary(data)
	if err != nil {
		t.Fatalf("DecodeSummary: %v", err)
	}
	if gotMeta != meta {
		t.Fatalf("meta = %+v, want %+v", gotMeta, meta)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
	// -0.0 must survive bit-exactly.
	g := got.Sites[1].GlobVals[0]
	if math.Float64bits(g.Val().R) != math.Float64bits(math.Copysign(0, -1)) {
		t.Fatalf("-0.0 not preserved: %v", g.Val().R)
	}
	// The sparse index slice must round-trip through the delta encoding.
	if sv := got.Sites[1]; !slices.Equal(sv.GlobIdx, []int32{2, 7}) || !sv.GlobVals[0].IsConst() || !sv.GlobVals[1].IsBottom() {
		t.Fatalf("sparse globals broken: %+v", got.Sites[1])
	}
}

// TestSummaryBytesPinned pins the encoded bytes of one summary, frame
// and checksum included. The bytes were recorded from the version 3
// encoder before lattice elements were packed into 16 bytes; a
// -cache-dir written by any version 3 build must keep decoding, so a
// change here without a Version bump orphans every stored entry. The
// elements are one of each kind a layout change could disturb: ⊤, ⊥,
// a negative int, -0.0, +Inf and false.
func TestSummaryBytesPinned(t *testing.T) {
	elems := []lattice.Elem{
		lattice.TopElem(),
		lattice.BottomElem(),
		lattice.Const(val.Int(-7)),
		lattice.Const(val.Real(math.Copysign(0, -1))),
		lattice.Const(val.Real(math.Inf(1))),
		lattice.Const(val.Bool(false)),
	}
	s := &incr.ProcSummary{
		BackEdges: 1,
		Entry:     elems,
		Sites: []incr.SiteValues{
			{},
			{Reachable: true, Args: elems[:3], GlobIdx: []int32{1, 4, 9}, GlobVals: elems[3:]},
		},
	}
	const want = "4653435003000100540b60561976af77020000000000000043000000000106000201010d0102" +
		"00000000000000800102000000000000f07f01030002000103000201010d03010102000000" +
		"0000000080030102000000000000f07f05010300cd030726"
	data := EncodeSummary(Meta{KeyHash: HashKey("pin"), Gen: 2}, s)
	if got := hex.EncodeToString(data); got != want {
		t.Fatalf("encoded summary changed:\n got %s\nwant %s", got, want)
	}
	if _, back, err := DecodeSummary(data); err != nil || !reflect.DeepEqual(back, s) {
		t.Fatalf("pinned summary does not round-trip: %v", err)
	}
}

func TestSummaryDeterministicEncoding(t *testing.T) {
	meta := Meta{KeyHash: 1, Gen: 2}
	a := EncodeSummary(meta, sampleSummary())
	for i := 0; i < 16; i++ {
		// Map iteration order varies; the sorted-name encoding must not.
		if b := EncodeSummary(meta, sampleSummary()); !reflect.DeepEqual(a, b) {
			t.Fatal("encoding is not deterministic")
		}
	}
}

func TestSummaryFlags(t *testing.T) {
	for _, s := range []*incr.ProcSummary{
		{Dead: true},
		{Degraded: true},
		{Dead: true, Degraded: true, BackEdges: 1},
	} {
		_, got, err := DecodeSummary(EncodeSummary(Meta{}, s))
		if err != nil {
			t.Fatalf("decode %+v: %v", s, err)
		}
		if got.Dead != s.Dead || got.Degraded != s.Degraded || got.BackEdges != s.BackEdges {
			t.Fatalf("flags round trip: got %+v, want %+v", got, s)
		}
	}
}

// reseal recomputes a frame's trailing checksum after a test edits its
// bytes, so only the edit itself can make the decoder reject it.
func reseal(data []byte) []byte {
	end := len(data) - crcLen
	return binary.LittleEndian.AppendUint32(data[:end:end], crc32.Checksum(data[:end], crcTable))
}

func TestNaNDecodesToBottom(t *testing.T) {
	// No encoder ever produces a Constant NaN (lattice.Const maps it to
	// ⊥ first), but a frame built elsewhere could carry the bits; the
	// decoder must uphold the invariant. Write a real constant into a
	// summary's entry frame, overwrite its bits with a NaN, and reseal
	// the frame.
	const seed = 1.5
	data := EncodeSummary(Meta{}, &incr.ProcSummary{
		Entry: []lattice.Elem{lattice.Const(val.Real(seed))},
	})
	bits := binary.LittleEndian.AppendUint64(nil, math.Float64bits(seed))
	at := bytes.Index(data, bits)
	if at < headerLen {
		t.Fatal("real constant not found in the summary payload")
	}
	binary.LittleEndian.PutUint64(data[at:], math.Float64bits(math.NaN()))
	_, got, err := DecodeSummary(reseal(data))
	if err != nil {
		t.Fatalf("DecodeSummary: %v", err)
	}
	if !got.Entry[0].IsBottom() {
		t.Fatalf("NaN decoded to %+v, want ⊥", got.Entry[0])
	}
}

func TestTruncationDetected(t *testing.T) {
	data := EncodeSummary(Meta{KeyHash: 5}, sampleSummary())
	for _, n := range []int{0, 3, headerLen - 1, headerLen, len(data) / 2, len(data) - 1} {
		if _, _, err := DecodeSummary(data[:n]); err == nil {
			t.Fatalf("truncation to %d bytes not detected", n)
		}
	}
}

func TestBitFlipsDetected(t *testing.T) {
	orig := EncodeSummary(Meta{KeyHash: 5, Gen: 1}, sampleSummary())
	for i := 0; i < len(orig); i++ {
		for bit := 0; bit < 8; bit++ {
			data := append([]byte(nil), orig...)
			data[i] ^= 1 << bit
			if _, _, err := DecodeSummary(data); err == nil {
				t.Fatalf("bit flip at byte %d bit %d not detected", i, bit)
			}
		}
	}
}

func TestVersionSkewDetected(t *testing.T) {
	data := EncodeSummary(Meta{}, sampleSummary())
	data[4]++ // bump the version field; checksum now stale too
	if _, _, err := DecodeSummary(data); err == nil {
		t.Fatal("version skew not detected")
	}
	// A frame legitimately written by a future version (checksum valid,
	// version higher) must fail specifically with ErrVersion.
	if _, _, err := DecodeSummary(reseal(data)); !errors.Is(err, ErrVersion) {
		t.Fatalf("future version: got %v, want ErrVersion", err)
	}
}

func TestKindConfusionDetected(t *testing.T) {
	// A summary frame whose kind byte names another payload kind is
	// rejected even with a valid checksum.
	data := EncodeSummary(Meta{}, sampleSummary())
	data[6] = KindSummary + 1
	if _, _, err := DecodeSummary(reseal(data)); err == nil {
		t.Fatal("frame of another kind accepted as summary")
	}
}

func TestPeekMeta(t *testing.T) {
	meta := Meta{KeyHash: 77, Gen: 12}
	data := EncodeSummary(meta, sampleSummary())
	got, err := PeekMeta(data)
	if err != nil || got != meta {
		t.Fatalf("PeekMeta = %+v, %v; want %+v", got, err, meta)
	}
	// Peek skips the checksum: flipping a payload bit must not matter.
	data[headerLen] ^= 0x40
	if got, err := PeekMeta(data); err != nil || got != meta {
		t.Fatalf("PeekMeta after payload flip = %+v, %v", got, err)
	}
	if _, err := PeekMeta(data[:headerLen-2]); err == nil {
		t.Fatal("short frame not rejected by PeekMeta")
	}
}

// TestNonCanonicalElemsEncodeCanonically asserts two elements encode
// to equal bytes exactly when they are Eq, however they were built: a
// Const of any NaN payload is the ⊥ it decodes to, and a real computed
// along another path encodes alike only when its bits agree.
func TestNonCanonicalElemsEncodeCanonically(t *testing.T) {
	nan := func(bits uint64) lattice.Elem { return lattice.Const(val.Real(math.Float64frombits(bits))) }
	tenth := 0.1
	elems := []lattice.Elem{
		lattice.TopElem(),
		lattice.BottomElem(),
		nan(0x7ff8000000000001),
		nan(0xfff4000000000000),
		lattice.Const(val.Int(0)),
		lattice.Const(val.Real(0)),
		lattice.Const(val.Real(math.Copysign(0, -1))),
		lattice.Const(val.Real(tenth * 3)),
		lattice.Const(val.Real(0.3)),
		lattice.Const(val.Real(math.Nextafter(0.3, 1))),
		lattice.Const(val.Bool(false)),
	}
	enc := func(e lattice.Elem) []byte {
		return EncodeSummary(Meta{}, &incr.ProcSummary{Entry: []lattice.Elem{e}})
	}
	for i, a := range elems {
		for j, b := range elems {
			if got := bytes.Equal(enc(a), enc(b)); got != a.Eq(b) {
				t.Errorf("elements %d (%v) and %d (%v): equal bytes %v, Eq %v", i, a, j, b, got, a.Eq(b))
			}
		}
	}
}

// FuzzDecodeSummary: DecodeSummary never panics, and a summary it
// accepts re-encodes to bytes that decode to an equal summary, which
// in turn re-encodes to the same bytes. Each input is tried as a whole
// frame and, sealed in a fresh frame, as a payload, so mutations reach
// the payload decoder without having to forge a checksum. The seeds
// are frames and payloads of summaries whose entry frames hold ⊤, ⊥,
// ±0.0 and a NaN's bits, an empty frame, and unreachable sites.
func FuzzDecodeSummary(f *testing.F) {
	negZero := lattice.Const(val.Real(math.Copysign(0, -1)))
	seeds := []*incr.ProcSummary{
		sampleSummary(),
		{},
		{Entry: []lattice.Elem{}, Sites: []incr.SiteValues{{}, {}}},
		{Dead: true, Degraded: true, BackEdges: 1, Entry: []lattice.Elem{
			lattice.TopElem(), lattice.BottomElem(), negZero, lattice.Const(val.Real(0)),
		}},
		{Entry: []lattice.Elem{negZero}, Sites: []incr.SiteValues{{}, {
			Reachable: true,
			Args:      []lattice.Elem{lattice.TopElem(), negZero},
			GlobIdx:   []int32{0, 3},
			GlobVals:  []lattice.Elem{lattice.BottomElem(), lattice.Const(val.Bool(false))},
		}}},
	}
	add := func(data []byte) {
		f.Add(data)
		f.Add(bytes.Clone(data[headerLen : len(data)-crcLen]))
	}
	for i, s := range seeds {
		add(EncodeSummary(Meta{KeyHash: uint64(i), Gen: uint64(i)}, s))
	}
	const seed = 1.5
	nan := EncodeSummary(Meta{}, &incr.ProcSummary{Entry: []lattice.Elem{lattice.Const(val.Real(seed))}})
	at := bytes.Index(nan, binary.LittleEndian.AppendUint64(nil, math.Float64bits(seed)))
	binary.LittleEndian.PutUint64(nan[at:], math.Float64bits(math.NaN()))
	add(reseal(nan))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, frameData := range [][]byte{data, frame(Meta{Gen: 1}, data)} {
			meta, s, err := DecodeSummary(frameData)
			if err != nil {
				continue
			}
			again := EncodeSummary(meta, s)
			meta2, s2, err := DecodeSummary(again)
			if err != nil {
				t.Fatalf("re-encoded summary does not decode: %v", err)
			}
			if meta2 != meta || !reflect.DeepEqual(s2, s) {
				t.Fatalf("round trip changed the summary:\n got %+v\nwant %+v", s2, s)
			}
			if !bytes.Equal(EncodeSummary(meta2, s2), again) {
				t.Fatal("re-encoding is not stable")
			}
		}
	})
}
