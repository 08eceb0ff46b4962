package lattice

import (
	"testing"

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
