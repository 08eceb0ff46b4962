package bitset

import "testing"

func TestSetBasics(t *testing.T) {
	s := New(130)
	if s.Has(0) || s.Has(129) {
		t.Fatal("new set must be empty")
	}
	if !s.Add(129) || s.Add(129) {
		t.Fatal("Add must report the first insertion only")
	}
	if !s.Has(129) || s.Has(128) {
		t.Fatal("wrong bit set")
	}
	if s.Has(-1) || s.Has(1<<30) {
		t.Fatal("out-of-range Has must read unset")
	}
	s.Clear()
	if s.Has(129) {
		t.Fatal("Clear left a bit set")
	}
	s = s.Reset(64)
	if len(s) != 1 {
		t.Fatalf("Reset(64) length = %d, want 1", len(s))
	}
}

// TestAutoMatchesDense drives the sparse representation through the
// same operation sequence as a dense set and requires identical
// answers — the spill must change memory layout only.
func TestAutoMatchesDense(t *testing.T) {
	n := SpillThreshold * 2
	sparse := NewAuto(n)
	if !sparse.Sparse() {
		t.Fatalf("capacity %d should spill", n)
	}
	dense := NewAuto(SpillThreshold)
	if dense.Sparse() {
		t.Fatalf("capacity %d should stay dense", SpillThreshold)
	}
	ref := make(map[int]bool)
	// A deterministic pseudo-random walk over the index space.
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 20000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		idx := int(x % uint64(n))
		changed := sparse.Add(idx)
		if changed == ref[idx] {
			t.Fatalf("Add(%d) changed=%v but ref has=%v", idx, changed, ref[idx])
		}
		ref[idx] = true
		small := idx % SpillThreshold
		dense.Add(small)
		if !dense.Has(small) {
			t.Fatalf("dense Add lost bit %d", small)
		}
	}
	for idx := range ref {
		if !sparse.Has(idx) {
			t.Fatalf("sparse lost bit %d", idx)
		}
	}
	if sparse.Has(1) != ref[1] {
		t.Fatalf("sparse Has(1)=%v want %v", sparse.Has(1), ref[1])
	}
}
