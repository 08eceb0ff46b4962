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
// interprocedural constants. A nil Env behaves as "everything ⊥".
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

// EnvReader is the read side shared by the map-backed Env (sparse
// keys, e.g. whole-program global environments) and the slice-backed
// DenseEnv (dense keys, e.g. a procedure's formals plus referenced
// globals). A nil EnvReader means "everything ⊥"; callers hold that
// convention themselves since a nil interface cannot be called.
type EnvReader[K comparable] interface {
	// Get returns the element for k, defaulting to ⊥ when the
	// environment does not bind k.
	Get(k K) Elem
}

// DenseEnv is a slice-backed environment for keys that map to small
// dense slots. It mirrors Env's semantics exactly: unbound keys read
// as ⊥, MeetInto starts absent entries at ⊤, and iteration (Each)
// visits only keys that were explicitly bound — so converting a
// DenseEnv to a map-backed Env reproduces the map the old code built.
type DenseEnv[K comparable] struct {
	// Index maps a key to its dense slot, or a negative value for keys
	// this environment does not cover (those read as ⊥ and cannot be
	// bound).
	Index func(K) int

	vals  []Elem
	bound []bool
	keys  []K // keys of bound slots, in first-bind order
}

// NewDenseEnv returns a dense environment with n slots addressed by
// index.
func NewDenseEnv[K comparable](n int, index func(K) int) *DenseEnv[K] {
	return &DenseEnv[K]{Index: index, vals: make([]Elem, n), bound: make([]bool, n)}
}

// slot returns k's slot, or -1 when k is outside the environment.
func (d *DenseEnv[K]) slot(k K) int {
	i := d.Index(k)
	if i >= len(d.vals) {
		return -1
	}
	return i
}

// put binds slot i (recording k on first bind).
func (d *DenseEnv[K]) put(i int, k K, e Elem) {
	if !d.bound[i] {
		d.bound[i] = true
		d.keys = append(d.keys, k)
	}
	d.vals[i] = e
}

// Get returns the element for k, defaulting to ⊥ when unbound.
func (d *DenseEnv[K]) Get(k K) Elem {
	if d == nil {
		return BottomElem()
	}
	i := d.slot(k)
	if i < 0 || !d.bound[i] {
		return BottomElem()
	}
	return d.vals[i]
}

// MeetInto lowers the entry for k by meeting it with el; unbound keys
// start at ⊤. It reports whether the entry changed. Keys outside the
// environment's index range are ignored (and report no change).
func (d *DenseEnv[K]) MeetInto(k K, el Elem) bool {
	i := d.slot(k)
	if i < 0 {
		return false
	}
	old := d.vals[i]
	if !d.bound[i] {
		old = TopElem()
	}
	nw := Meet(old, el)
	if d.bound[i] && nw.Eq(old) {
		return false
	}
	d.put(i, k, nw)
	return true
}

// Set binds k to el unconditionally (used for the residual-⊤ demotion
// pass entry environments perform).
func (d *DenseEnv[K]) Set(k K, el Elem) {
	if i := d.slot(k); i >= 0 {
		d.put(i, k, el)
	}
}

// Each visits every bound key in first-bind order.
func (d *DenseEnv[K]) Each(f func(K, Elem)) {
	if d == nil {
		return
	}
	for _, k := range d.keys {
		f(k, d.vals[d.Index(k)])
	}
}

// ToEnv converts to the map-backed form (for results that outlive the
// analysis and for name-keyed portable summaries).
func (d *DenseEnv[K]) ToEnv() Env[K] {
	if d == nil {
		return nil
	}
	m := make(Env[K], len(d.keys))
	d.Each(func(k K, e Elem) { m[k] = e })
	return m
}
