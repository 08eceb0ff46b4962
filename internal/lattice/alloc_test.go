package lattice

import (
	"testing"
	"unsafe"

	"fsicp/internal/val"
)

// Environment lookups sit on hot loops (the transform evaluators read
// one per frame slot), so their steady-state allocation behaviour is
// part of the contract: lookups never allocate. This guard catches an
// accidental reintroduction of per-operation allocation (boxing,
// closure capture).

func TestEnvLookupAllocFree(t *testing.T) {
	env := Env[int]{}
	for k := 0; k < 64; k++ {
		env[k] = Const(val.Int(int64(k)))
	}
	allocs := testing.AllocsPerRun(100, func() {
		for k := 0; k < 128; k++ { // hits and misses
			_ = env.Get(k)
		}
	})
	if allocs != 0 {
		t.Errorf("Env.Get allocated %.1f times per run, want 0", allocs)
	}
}

// TestElemSize pins the element layout: a 64-bit payload, a level byte
// and a type byte, padded to 16 bytes. Frames, summaries, SCC value
// tables and the value cache all hold elements by value, so a wider
// element multiplies through every one of them.
func TestElemSize(t *testing.T) {
	if got := unsafe.Sizeof(Elem{}); got != 16 {
		t.Errorf("unsafe.Sizeof(Elem{}) = %d, want 16", got)
	}
}

// TestMeetEqAllocFree guards the propagator's innermost operations:
// Meet and Eq are a level test and a struct compare, and never
// allocate.
func TestMeetEqAllocFree(t *testing.T) {
	elems := []Elem{
		TopElem(), BottomElem(), Const(val.Int(-3)), Const(val.Real(0.5)),
		Const(val.Real(0.5)), Const(val.Bool(true)),
	}
	var sink Elem
	eqs := 0
	allocs := testing.AllocsPerRun(100, func() {
		for _, a := range elems {
			for _, b := range elems {
				sink = Meet(sink, Meet(a, b))
				if a.Eq(b) {
					eqs++
				}
			}
		}
	})
	if allocs != 0 {
		t.Errorf("Meet and Eq allocated %.1f times per run, want 0", allocs)
	}
	if eqs == 0 || !sink.IsBottom() {
		t.Errorf("unexpected results: %d equal pairs, accumulated meet %v", eqs, sink)
	}
}
