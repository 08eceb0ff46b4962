// Package lattice defines the three-level constant-propagation lattice
//
//	     ⊤  (Top: no evidence yet / optimistically constant)
//	... c1  c2  c3 ...   (one constant value)
//	     ⊥  (Bottom: known non-constant)
//
// with the standard meet operator (Wegman–Zadeck, Kildall). Top is the
// identity of meet; Bottom is absorbing; two different constants meet to
// Bottom.
package lattice

import "fsicp/internal/val"

// Level is the lattice height of an element.
type Level int

const (
	Top Level = iota
	Constant
	Bottom
)

// Elem is one lattice element.
type Elem struct {
	Level Level
	Val   val.Value // meaningful iff Level == Constant
}

// TopElem returns ⊤.
func TopElem() Elem { return Elem{Level: Top} }

// BottomElem returns ⊥.
func BottomElem() Elem { return Elem{Level: Bottom} }

// Const returns the element for a known constant. NaN reals are mapped
// to ⊥: NaN != NaN, so folding a NaN as "the same constant everywhere"
// would be unsound under value comparison.
func Const(v val.Value) Elem {
	if v.IsNaN() {
		return BottomElem()
	}
	return Elem{Level: Constant, Val: v}
}

// Canonical returns the canonical representation of e: ⊤ and ⊥ carry
// no value payload, and a Constant holding NaN collapses to ⊥ (the
// Const invariant, restated for elements built literally). Serializers
// must canonicalise before encoding — two Eq elements must produce
// identical bytes, and Eq ignores the payload of non-constants.
func (e Elem) Canonical() Elem {
	switch {
	case e.Level == Constant && !e.Val.IsNaN():
		return e
	case e.Level == Constant:
		return BottomElem()
	default:
		return Elem{Level: e.Level}
	}
}

// IsTop reports whether e is ⊤.
func (e Elem) IsTop() bool { return e.Level == Top }

// IsConst reports whether e is a single constant.
func (e Elem) IsConst() bool { return e.Level == Constant }

// IsBottom reports whether e is ⊥.
func (e Elem) IsBottom() bool { return e.Level == Bottom }

// Meet returns the greatest lower bound of e and f.
func Meet(e, f Elem) Elem {
	switch {
	case e.IsTop():
		return f
	case f.IsTop():
		return e
	case e.IsBottom() || f.IsBottom():
		return BottomElem()
	case e.Val.Equal(f.Val):
		return e
	default:
		return BottomElem()
	}
}

// Eq reports whether two elements are identical.
func (e Elem) Eq(f Elem) bool {
	if e.Level != f.Level {
		return false
	}
	if e.Level != Constant {
		return true
	}
	return e.Val.Equal(f.Val)
}

// Leq reports whether e ⊑ f (e is lower than or equal to f in the
// lattice order with ⊥ at the bottom).
func Leq(e, f Elem) bool { return Meet(e, f).Eq(e) }

func (e Elem) String() string {
	switch e.Level {
	case Top:
		return "⊤"
	case Bottom:
		return "⊥"
	default:
		return e.Val.String()
	}
}

// Env is a variable environment used to seed procedure entries with
// interprocedural constants. The analysis builds entry environments
// as an Env directly, presized to the procedure's formals and global
// segment. A nil Env behaves as "everything ⊥".
type Env[K comparable] map[K]Elem

// Get returns the element for k, defaulting to ⊥ when absent.
func (e Env[K]) Get(k K) Elem {
	if e == nil {
		return BottomElem()
	}
	if el, ok := e[k]; ok {
		return el
	}
	return BottomElem()
}

// MeetInto lowers the entry for k by meeting it with el; absent keys
// start at ⊤. It reports whether the entry changed.
func (e Env[K]) MeetInto(k K, el Elem) bool {
	old, ok := e[k]
	if !ok {
		old = TopElem()
	}
	nw := Meet(old, el)
	if ok && nw.Eq(old) {
		return false
	}
	e[k] = nw
	return true
}
