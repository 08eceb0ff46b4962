// Package bitset provides the minimal dense bit set the hot analysis
// paths use in place of map[...]bool. Keys are small dense integers
// linear in a function's size (block indices, two successor slots per
// block) or in the program's declarations (MOD/REF rows), so a
// []uint64 gives O(1) membership with one allocation and no hashing —
// the layout Wegman–Zadeck's sparse conditional constant algorithm and
// Cooper–Kennedy's side-effect analysis are designed around.
package bitset

import "math/bits"

// Set is a fixed-capacity bit set. The zero value is an empty set of
// capacity 0; use New (or Reset) to size it.
type Set []uint64

// New returns a set able to hold bits [0, n).
func New(n int) Set {
	return make(Set, (n+63)/64)
}

// Has reports whether bit i is set. Out-of-range bits read as unset.
func (s Set) Has(i int) bool {
	w := i >> 6
	if w < 0 || w >= len(s) {
		return false
	}
	return s[w]&(1<<(uint(i)&63)) != 0
}

// Add sets bit i and reports whether the set changed. The bit must be
// within the capacity the set was created with.
func (s Set) Add(i int) bool {
	w, m := i>>6, uint64(1)<<(uint(i)&63)
	if s[w]&m != 0 {
		return false
	}
	s[w] |= m
	return true
}

// Or sets s to s ∪ t and reports whether s changed. t must not be
// longer than s.
func (s Set) Or(t Set) bool {
	changed := false
	for i, w := range t {
		if n := s[i] | w; n != s[i] {
			s[i] = n
			changed = true
		}
	}
	return changed
}

// Count returns the number of set bits.
func (s Set) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// Next returns the smallest set bit at or after i, or -1 when there is
// none: for b := s.Next(0); b >= 0; b = s.Next(b + 1) visits the set in
// ascending order.
func (s Set) Next(i int) int {
	if i < 0 {
		i = 0
	}
	w := i >> 6
	if w >= len(s) {
		return -1
	}
	word := s[w] >> (uint(i) & 63)
	if word != 0 {
		return i + bits.TrailingZeros64(word)
	}
	for w++; w < len(s); w++ {
		if s[w] != 0 {
			return w<<6 + bits.TrailingZeros64(s[w])
		}
	}
	return -1
}

// Clear unsets every bit, keeping the capacity.
func (s Set) Clear() {
	for i := range s {
		s[i] = 0
	}
}

// Reset makes the set empty with capacity for bits [0, n), reusing the
// backing array when it is large enough. It returns the set to use
// (the receiver or a regrown one), for pooling scratch sets across
// runs.
func (s Set) Reset(n int) Set {
	w := (n + 63) / 64
	if cap(s) < w {
		return make(Set, w)
	}
	s = s[:w]
	s.Clear()
	return s
}
