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
	if !z.IsConst() || z.Val().I != 0 {
		t.Errorf("zero int: %v", z)
	}
}

// TestCanonical pins the invariant the constructors keep: every
// element is canonical, so Eq is ==. A Const of any NaN — quiet or
// signalling, either sign, any payload — is the ⊥ BottomElem builds,
// the zero Elem is ⊤, and Eq agrees with a comparison of levels and
// val.Value.Equal.
func TestCanonical(t *testing.T) {
	if (Elem{}) != TopElem() {
		t.Error("the zero Elem must be ⊤")
	}
	for _, bits := range []uint64{
		0x7ff8000000000000, 0xfff8000000000000, // quiet, ±
		0x7ff0000000000001, 0xfff4000000000000, // signalling, ±
		0x7fffffffffffffff, 0x7ff8000000000bad, // payloads
	} {
		if got := Const(val.Real(math.Float64frombits(bits))); got != BottomElem() {
			t.Errorf("Const(NaN %#x) = %+v, want ⊥", bits, got)
		}
	}
	f := func(a, b Elem) bool {
		want := a.Level() == b.Level() && (!a.IsConst() || a.Val().Equal(b.Val()))
		return a.Eq(b) == want && (!a.IsConst() || Const(a.Val()) == a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// refElem is the reference model FuzzElem checks Elem against: a level
// beside a full val.Value, compared with val.Value.Equal.
type refElem struct {
	level Level
	v     val.Value
}

func refMeet(a, b refElem) refElem {
	switch {
	case a.level == Top:
		return b
	case b.level == Top:
		return a
	case a.level == Bottom || b.level == Bottom:
		return refElem{level: Bottom}
	case a.v.Equal(b.v):
		return a
	default:
		return refElem{level: Bottom}
	}
}

func refEq(a, b refElem) bool {
	return a.level == b.level && (a.level != Constant || a.v.Equal(b.v))
}

// fuzzElem builds an element and its reference from a (level, type,
// payload) triple: the payload is an int's two's complement, a real's
// IEEE-754 bits, or a bool's low bit.
func fuzzElem(level, typ uint8, payload uint64) (Elem, refElem) {
	switch level % 3 {
	case 0:
		return TopElem(), refElem{level: Top}
	case 2:
		return BottomElem(), refElem{level: Bottom}
	}
	var v val.Value
	switch typ % 3 {
	case 0:
		v = val.Int(int64(payload))
	case 1:
		v = val.Real(math.Float64frombits(payload))
	default:
		v = val.Bool(payload&1 != 0)
	}
	if v.IsNaN() {
		return Const(v), refElem{level: Bottom}
	}
	return Const(v), refElem{level: Constant, v: v}
}

// FuzzElem checks the packed element against the reference model —
// levels, the Val round trip, Meet and Eq — and the lattice laws:
// Meet is commutative, associative and idempotent, ⊤ is its identity
// and ⊥ absorbs. The seeds are the values whose bit patterns the
// model distinguishes from their numeric value: ±0.0, NaNs with the
// sign bit set and with signalling payloads, ±Inf, a subnormal, the
// extreme ints, and both bools.
func FuzzElem(f *testing.F) {
	type tp struct {
		typ     uint8
		payload uint64
	}
	seeds := []tp{
		{1, math.Float64bits(0)},
		{1, math.Float64bits(math.Copysign(0, -1))},
		{1, 0xfff8000000000000}, // quiet NaN, sign bit set
		{1, 0x7ff0000000000001}, // signalling NaN
		{1, 0xfff4000000000bad}, // signalling NaN, sign bit set
		{1, math.Float64bits(math.Inf(1))},
		{1, math.Float64bits(math.Inf(-1))},
		{1, math.Float64bits(math.SmallestNonzeroFloat64)}, // subnormal
		{0, 1 << 63}, // MinInt64
		{0, math.MaxInt64},
		{0, 0},
		{2, 1},
		{2, 0},
	}
	for i, a := range seeds {
		b := seeds[(i+1)%len(seeds)]
		c := seeds[(i+5)%len(seeds)]
		f.Add(uint8(1), a.typ, a.payload, uint8(1), b.typ, b.payload, uint8(i), c.typ, c.payload)
		f.Add(uint8(1), a.typ, a.payload, uint8(1), a.typ, a.payload, uint8(1), c.typ, c.payload)
	}
	f.Fuzz(func(t *testing.T, la, ta uint8, pa uint64, lb, tb uint8, pb uint64, lc, tc uint8, pc uint64) {
		a, ra := fuzzElem(la, ta, pa)
		b, rb := fuzzElem(lb, tb, pb)
		c, _ := fuzzElem(lc, tc, pc)
		for _, x := range []struct {
			e Elem
			r refElem
		}{{a, ra}, {b, rb}} {
			if x.e.Level() != x.r.level {
				t.Fatalf("%v: level %d, want %d", x.e, x.e.Level(), x.r.level)
			}
			if x.e.IsConst() {
				if got := x.e.Val(); !got.Equal(x.r.v) || Const(got) != x.e {
					t.Fatalf("%v: Val round trip gives %+v, want %+v", x.e, got, x.r.v)
				}
			} else if x.e.Val() != (val.Value{}) {
				t.Fatalf("%v: Val of a non-constant is %+v", x.e, x.e.Val())
			}
		}
		m := Meet(a, b)
		rm := refMeet(ra, rb)
		if got := (refElem{level: m.Level(), v: m.Val()}); !refEq(got, rm) {
			t.Fatalf("Meet(%v, %v) = %v, reference %+v", a, b, m, rm)
		}
		if a.Eq(b) != refEq(ra, rb) {
			t.Fatalf("Eq(%v, %v) = %v, reference %v", a, b, a.Eq(b), refEq(ra, rb))
		}
		switch {
		case !m.Eq(Meet(b, a)):
			t.Fatalf("Meet(%v, %v) not commutative", a, b)
		case !Meet(m, c).Eq(Meet(a, Meet(b, c))):
			t.Fatalf("Meet(%v, %v, %v) not associative", a, b, c)
		case !Meet(a, a).Eq(a):
			t.Fatalf("Meet(%v, %v) not idempotent", a, a)
		case !Meet(TopElem(), a).Eq(a) || !Meet(a, TopElem()).Eq(a):
			t.Fatalf("⊤ is not the identity for %v", a)
		case !Meet(BottomElem(), a).IsBottom() || !Meet(a, BottomElem()).IsBottom():
			t.Fatalf("⊥ does not absorb %v", a)
		}
	})
}
