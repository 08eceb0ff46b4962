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
