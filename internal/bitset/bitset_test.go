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

func TestOrCountNext(t *testing.T) {
	s, u := New(200), New(200)
	for _, b := range []int{0, 63, 64, 130} {
		u.Add(b)
	}
	if !s.Or(u) || s.Or(u) {
		t.Fatal("Or must report growth exactly once")
	}
	if s.Count() != 4 {
		t.Fatalf("Count = %d, want 4", s.Count())
	}
	var got []int
	for b := s.Next(0); b >= 0; b = s.Next(b + 1) {
		got = append(got, b)
	}
	if len(got) != 4 || got[0] != 0 || got[1] != 63 || got[2] != 64 || got[3] != 130 {
		t.Fatalf("Next visits %v, want [0 63 64 130]", got)
	}
	if s.Next(131) != -1 || s.Next(1<<20) != -1 || New(0).Next(0) != -1 {
		t.Fatal("Next past the last bit must return -1")
	}
	// A shorter operand ORs into the prefix only.
	if !s.Or(Set{1 << 5}) || !s.Has(5) {
		t.Fatal("Or of a one-word operand must set bit 5")
	}
}
