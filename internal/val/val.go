// Package val defines MiniFort runtime/constant values and the single
// evaluation semantics shared by the constant propagators and the
// reference interpreter. Having one implementation of operator semantics
// guarantees that a value the analyser folds at compile time is the value
// the interpreter computes at run time.
package val

import (
	"math"
	"strconv"

	"fsicp/internal/ast"
	"fsicp/internal/token"
)

// Value is a MiniFort scalar: an int, real, or bool.
type Value struct {
	Type ast.Type
	I    int64
	R    float64
	B    bool
}

// Int returns an int value.
func Int(v int64) Value { return Value{Type: ast.TypeInt, I: v} }

// Real returns a real value.
func Real(v float64) Value { return Value{Type: ast.TypeReal, R: v} }

// Bool returns a bool value.
func Bool(v bool) Value { return Value{Type: ast.TypeBool, B: v} }

// Zero returns the zero value of a type (used for uninitialised
// variables, matching the interpreter's definition of "undefined").
func Zero(t ast.Type) Value {
	return Value{Type: t}
}

// Equal reports whether two values are identical constants. Reals compare
// bit-exactly: 0.0 and -0.0 differ (1/x tells them apart), and NaN equals
// nothing, itself included — the identity constant propagation may
// assume when it substitutes one value for another.
func (v Value) Equal(w Value) bool {
	if v.Type != w.Type {
		return false
	}
	switch v.Type {
	case ast.TypeInt:
		return v.I == w.I
	case ast.TypeReal:
		return math.Float64bits(v.R) == math.Float64bits(w.R) && !math.IsNaN(v.R)
	case ast.TypeBool:
		return v.B == w.B
	}
	return true
}

// String renders the value. It sits on the report path (every constant
// a method finds is rendered at least once), so it uses strconv
// directly rather than fmt's reflection-based formatting; the output is
// byte-identical to the former %d/%g/%t verbs.
func (v Value) String() string {
	switch v.Type {
	case ast.TypeInt:
		return strconv.FormatInt(v.I, 10)
	case ast.TypeReal:
		return strconv.FormatFloat(v.R, 'g', -1, 64)
	case ast.TypeBool:
		return strconv.FormatBool(v.B)
	}
	return "<invalid>"
}

// IsFloat reports whether the value is a real; used by the float-
// propagation switch (the paper reports results with and without
// floating-point constant propagation).
func (v Value) IsFloat() bool { return v.Type == ast.TypeReal }

// Unary applies a unary operator. ok is false if the operator/type
// combination is invalid or the result is not defined (never happens for
// type-checked programs).
func Unary(op token.Kind, x Value) (Value, bool) {
	switch op {
	case token.SUB:
		switch x.Type {
		case ast.TypeInt:
			return Int(-x.I), true
		case ast.TypeReal:
			return Real(-x.R), true
		}
	case token.NOT:
		if x.Type == ast.TypeBool {
			return Bool(!x.B), true
		}
	}
	return Value{}, false
}

// Binary applies a binary operator. Division or remainder by integer zero
// returns ok=false: the analyser must not fold it (it is a runtime
// error), and the interpreter reports it.
func Binary(op token.Kind, x, y Value) (Value, bool) {
	if x.Type != y.Type {
		return Value{}, false
	}
	switch x.Type {
	case ast.TypeInt:
		switch op {
		case token.ADD:
			return Int(x.I + y.I), true
		case token.SUB:
			return Int(x.I - y.I), true
		case token.MUL:
			return Int(x.I * y.I), true
		case token.QUO:
			if y.I == 0 {
				return Value{}, false
			}
			return Int(x.I / y.I), true
		case token.REM:
			if y.I == 0 {
				return Value{}, false
			}
			return Int(x.I % y.I), true
		case token.EQL:
			return Bool(x.I == y.I), true
		case token.NEQ:
			return Bool(x.I != y.I), true
		case token.LSS:
			return Bool(x.I < y.I), true
		case token.LEQ:
			return Bool(x.I <= y.I), true
		case token.GTR:
			return Bool(x.I > y.I), true
		case token.GEQ:
			return Bool(x.I >= y.I), true
		}
	case ast.TypeReal:
		switch op {
		case token.ADD:
			return Real(x.R + y.R), true
		case token.SUB:
			return Real(x.R - y.R), true
		case token.MUL:
			return Real(x.R * y.R), true
		case token.QUO:
			return Real(x.R / y.R), true // IEEE: /0 is ±Inf, well defined
		case token.EQL:
			return Bool(x.R == y.R), true
		case token.NEQ:
			return Bool(x.R != y.R), true
		case token.LSS:
			return Bool(x.R < y.R), true
		case token.LEQ:
			return Bool(x.R <= y.R), true
		case token.GTR:
			return Bool(x.R > y.R), true
		case token.GEQ:
			return Bool(x.R >= y.R), true
		}
	case ast.TypeBool:
		switch op {
		case token.LAND:
			return Bool(x.B && y.B), true
		case token.LOR:
			return Bool(x.B || y.B), true
		case token.EQL:
			return Bool(x.B == y.B), true
		case token.NEQ:
			return Bool(x.B != y.B), true
		}
	}
	return Value{}, false
}

// ResultType gives the static result type of op applied to operand type
// t, and whether the combination is legal. Both operands of a binary op
// must share t.
func ResultType(op token.Kind, t ast.Type) (ast.Type, bool) {
	switch op {
	case token.ADD, token.SUB, token.MUL:
		if t == ast.TypeInt || t == ast.TypeReal {
			return t, true
		}
	case token.QUO:
		if t == ast.TypeInt || t == ast.TypeReal {
			return t, true
		}
	case token.REM:
		if t == ast.TypeInt {
			return t, true
		}
	case token.EQL, token.NEQ:
		if t != ast.TypeInvalid {
			return ast.TypeBool, true
		}
	case token.LSS, token.LEQ, token.GTR, token.GEQ:
		if t == ast.TypeInt || t == ast.TypeReal {
			return ast.TypeBool, true
		}
	case token.LAND, token.LOR:
		if t == ast.TypeBool {
			return ast.TypeBool, true
		}
	}
	return ast.TypeInvalid, false
}

// UnaryResultType gives the static result type of a unary op.
func UnaryResultType(op token.Kind, t ast.Type) (ast.Type, bool) {
	switch op {
	case token.SUB:
		if t == ast.TypeInt || t == ast.TypeReal {
			return t, true
		}
	case token.NOT:
		if t == ast.TypeBool {
			return t, true
		}
	}
	return ast.TypeInvalid, false
}

// IsNaN reports whether a real value is NaN (never foldable to itself
// under Equal, so the lattice treats NaN results as non-constant).
func (v Value) IsNaN() bool { return v.Type == ast.TypeReal && math.IsNaN(v.R) }
