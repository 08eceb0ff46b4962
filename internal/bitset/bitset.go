// Package bitset provides the minimal dense bit set the hot analysis
// paths use in place of map[...]bool. Keys are small dense integers
// linear in a function's size (block indices, two successor slots per
// block), so a []uint64 gives O(1) membership with one allocation and
// no hashing — the layout Wegman–Zadeck's sparse conditional constant
// algorithm is designed around.
package bitset

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
