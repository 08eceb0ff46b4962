package lattice

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"fsicp/internal/ast"
	"fsicp/internal/val"
)

// Generate lets testing/quick produce arbitrary lattice elements with a
// healthy mix of ⊤, ⊥, and constants of every type.
func (Elem) Generate(r *rand.Rand, _ int) reflect.Value {
	var e Elem
	switch r.Intn(5) {
	case 0:
		e = TopElem()
	case 1:
		e = BottomElem()
	case 2:
		e = Const(val.Int(int64(r.Intn(5) - 2)))
	case 3:
		e = Const(val.Real(float64(r.Intn(5)) / 2))
	default:
		e = Const(val.Bool(r.Intn(2) == 0))
	}
	return reflect.ValueOf(e)
}

// Leq reports whether e ⊑ f (e is lower than or equal to f in the
// lattice order with ⊥ at the bottom).
func Leq(e, f Elem) bool { return Meet(e, f).Eq(e) }

func TestMeetCommutative(t *testing.T) {
	f := func(a, b Elem) bool { return Meet(a, b).Eq(Meet(b, a)) }
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestMeetAssociative(t *testing.T) {
	f := func(a, b, c Elem) bool {
		return Meet(Meet(a, b), c).Eq(Meet(a, Meet(b, c)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestMeetIdempotent(t *testing.T) {
	f := func(a Elem) bool { return Meet(a, a).Eq(a) }
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestMeetIdentityAndAbsorbing(t *testing.T) {
	f := func(a Elem) bool {
		return Meet(TopElem(), a).Eq(a) && Meet(BottomElem(), a).IsBottom()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestMeetLowerBound(t *testing.T) {
	// Meet(a,b) ⊑ a and ⊑ b.
	f := func(a, b Elem) bool {
		m := Meet(a, b)
		return Leq(m, a) && Leq(m, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestLeqPartialOrder(t *testing.T) {
	// Reflexive; antisymmetric up to Eq; transitive.
	refl := func(a Elem) bool { return Leq(a, a) }
	if err := quick.Check(refl, nil); err != nil {
		t.Error(err)
	}
	anti := func(a, b Elem) bool {
		if Leq(a, b) && Leq(b, a) {
			return a.Eq(b)
		}
		return true
	}
	if err := quick.Check(anti, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	trans := func(a, b, c Elem) bool {
		if Leq(a, b) && Leq(b, c) {
			return Leq(a, c)
		}
		return true
	}
	if err := quick.Check(trans, &quick.Config{MaxCount: 4000}); err != nil {
		t.Error(err)
	}
}

func TestDistinctConstantsMeetToBottom(t *testing.T) {
	a := Const(val.Int(1))
	b := Const(val.Int(2))
	if !Meet(a, b).IsBottom() {
		t.Error("1 ⊓ 2 must be ⊥")
	}
	c := Const(val.Real(1)) // same numeric value, different type
	if !Meet(a, c).IsBottom() {
		t.Error("int 1 ⊓ real 1 must be ⊥")
	}
}

func TestNaNIsBottom(t *testing.T) {
	if !Const(val.Real(math.NaN())).IsBottom() {
		t.Error("NaN must map to ⊥ (NaN != NaN)")
	}
}

func TestEnvGet(t *testing.T) {
	env := Env[string]{"x": Const(val.Int(3))}
	if got := env.Get("x"); !got.Eq(Const(val.Int(3))) {
		t.Errorf("x = %v, want 3", got)
	}
	if !env.Get("absent").IsBottom() {
		t.Error("absent keys default to ⊥")
	}
	var nilEnv Env[string]
	if !nilEnv.Get("x").IsBottom() {
		t.Error("nil env must read ⊥")
	}
}

func TestString(t *testing.T) {
	if TopElem().String() != "⊤" || BottomElem().String() != "⊥" {
		t.Error("top/bottom rendering")
	}
	if Const(val.Int(7)).String() != "7" {
		t.Error("constant rendering")
	}
}

// Guard against accidental semantic drift: meet must treat typed zero
// values as constants (ast.TypeInvalid never reaches the lattice).
func TestZeroValuesAreConstants(t *testing.T) {
	z := Const(val.Zero(ast.TypeInt))
	if !z.IsConst() || z.Val.I != 0 {
		t.Errorf("zero int: %v", z)
	}
}

// TestCanonical pins the canonical-form contract serializers rely on:
// Eq elements must canonicalise to identical structs, non-constants
// drop any stale payload, and a literally-built Constant NaN collapses
// to ⊥ exactly as Const would have built it.
func TestCanonical(t *testing.T) {
	stale := val.Value{Type: ast.TypeInt, I: 99}
	cases := []struct {
		in, want Elem
	}{
		{TopElem(), TopElem()},
		{BottomElem(), BottomElem()},
		{Elem{Level: Top, Val: stale}, TopElem()},
		{Elem{Level: Bottom, Val: stale}, BottomElem()},
		{Const(val.Int(7)), Const(val.Int(7))},
		{Elem{Level: Constant, Val: val.Value{Type: ast.TypeReal, R: math.NaN()}}, BottomElem()},
	}
	for _, c := range cases {
		if got := c.in.Canonical(); got != c.want {
			t.Errorf("Canonical(%+v) = %+v, want %+v", c.in, got, c.want)
		}
	}
	f := func(a Elem) bool {
		c := a.Canonical()
		return c.Eq(a) && c == c.Canonical()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
