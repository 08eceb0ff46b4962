package lattice

import (
	"testing"

	"fsicp/internal/val"
)

// The environment operations sit on the propagator's innermost loops
// (every SSA edge visit reads or meets an element), so their
// steady-state allocation behaviour is part of the contract: lookups
// never allocate, and meets into already-bound slots never allocate.
// These guards catch an accidental reintroduction of per-operation
// allocation (boxing, map growth in a loop, closure capture).

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

func TestEnvMeetIntoBoundAllocFree(t *testing.T) {
	env := Env[int]{}
	for k := 0; k < 64; k++ {
		env[k] = Const(val.Int(int64(k)))
	}
	bot := BottomElem()
	allocs := testing.AllocsPerRun(100, func() {
		for k := 0; k < 64; k++ {
			env.MeetInto(k, bot)
		}
	})
	if allocs != 0 {
		t.Errorf("Env.MeetInto on bound keys allocated %.1f times per run, want 0", allocs)
	}
}
