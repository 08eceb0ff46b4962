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

import (
	"math"

	"fsicp/internal/ast"
	"fsicp/internal/val"
)

// Level is the lattice height of an element.
type Level uint8

const (
	Top Level = iota
	Constant
	Bottom
)

// Elem is one lattice element: 16 bytes, a 64-bit payload (an int's
// two's complement, a real's IEEE-754 bits, or a bool as 0/1) beside a
// level byte and a type byte. The fields are unexported and the only
// constructors are TopElem, BottomElem and Const, so every element is
// canonical: ⊤ and ⊥ carry a zero payload and type, and no Constant
// holds a NaN. Two elements are therefore the same element exactly
// when they are == — bit-exact for reals, so 0.0 and -0.0 differ —
// and Meet and Eq are a level test and one struct compare. The zero
// Elem is ⊤.
type Elem struct {
	bits  uint64
	level Level
	typ   uint8 // ast.Type of a Constant, 0 otherwise
}

// TopElem returns ⊤.
func TopElem() Elem { return Elem{} }

// BottomElem returns ⊥.
func BottomElem() Elem { return Elem{level: Bottom} }

// Const returns the element for a known constant. NaN reals are mapped
// to ⊥: NaN != NaN, so folding a NaN as "the same constant everywhere"
// would be unsound under value comparison.
func Const(v val.Value) Elem {
	e := Elem{level: Constant, typ: uint8(v.Type)}
	switch v.Type {
	case ast.TypeInt:
		e.bits = uint64(v.I)
	case ast.TypeReal:
		if math.IsNaN(v.R) {
			return BottomElem()
		}
		e.bits = math.Float64bits(v.R)
	case ast.TypeBool:
		if v.B {
			e.bits = 1
		}
	}
	return e
}

// Level returns e's lattice height.
func (e Elem) Level() Level { return e.level }

// Val returns the constant e holds; the zero Value when e is ⊤ or ⊥.
func (e Elem) Val() val.Value {
	switch t := ast.Type(e.typ); t {
	case ast.TypeInt:
		return val.Int(int64(e.bits))
	case ast.TypeReal:
		return val.Real(math.Float64frombits(e.bits))
	case ast.TypeBool:
		return val.Bool(e.bits != 0)
	default:
		return val.Zero(t)
	}
}

// IsTop reports whether e is ⊤.
func (e Elem) IsTop() bool { return e.level == Top }

// IsConst reports whether e is a single constant.
func (e Elem) IsConst() bool { return e.level == Constant }

// IsBottom reports whether e is ⊥.
func (e Elem) IsBottom() bool { return e.level == Bottom }

// Meet returns the greatest lower bound of e and f.
func Meet(e, f Elem) Elem {
	switch {
	case e == f || f.level == Top:
		return e
	case e.level == Top:
		return f
	default:
		return BottomElem()
	}
}

// Eq reports whether two elements are identical.
func (e Elem) Eq(f Elem) bool { return e == f }

func (e Elem) String() string {
	switch e.level {
	case Top:
		return "⊤"
	case Bottom:
		return "⊥"
	default:
		return e.Val().String()
	}
}

// Env is a variable environment keyed by variable: the map form the
// analysis reports its entry and exit environments in. A nil Env
// behaves as "everything ⊥".
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
