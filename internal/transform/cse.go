package transform

import (
	"cmp"
	"strings"

	"fsicp/internal/ast"
	"fsicp/internal/ir"
	"fsicp/internal/ssa"
	"fsicp/internal/token"
)

// cseFunc is local common-subexpression elimination over the dominator
// tree: a scoped table maps value-numbered expression keys — operator
// plus operand definition IDs, with commutative operands normalised —
// to the definition of the first instruction that computed them. A
// later instruction with the same key in a dominated block becomes a
// copy of that earlier result.
//
// Operand definition IDs make the availability argument: equal IDs mean
// the operands provably hold the same values at both sites (any
// intervening write — including call may-defs and alias clobbers —
// creates a new definition and so a new key). The replacement also
// requires the earlier destination to have exactly one real definition,
// so its value still equals the expression at every dominated reuse.
func (st *optState) cseFunc(i int) PassReport {
	pr := PassReport{Pass: PassCSE}
	s := st.overlay(i)
	nd := st.defCounts(i)

	table := make(map[exprKey]int32)
	var walk func(b *ir.Block)
	walk = func(b *ir.Block) {
		var added []exprKey
		for idx, in := range b.Instrs {
			key, ok := keyOf(s, in)
			if !ok {
				continue
			}
			if prev, ok := table[key]; ok {
				nc := &ir.CopyInstr{Dst: in.Defs()[0], Src: s.Var(prev)}
				s.RewriteToCopy(b, idx, nc, prev)
				pr.CSEReplaced++
				continue
			}
			d := s.DefsOf(in)[0]
			if nd[s.Defs[d].Var] == 1 {
				table[key] = d
				added = append(added, key)
			}
		}
		for _, c := range s.Dom.Children(b) {
			walk(c)
		}
		for _, k := range added {
			delete(table, k)
		}
	}
	walk(s.Dom.RPO[0])
	return pr
}

// commutative reports operators where x op y == y op x, so both operand
// orders share one key.
func commutative(op token.Kind) bool {
	switch op {
	case token.ADD, token.MUL, token.EQL, token.NEQ:
		return true
	}
	return false
}

// exprKey value-numbers a pure expression: the operator and its
// operands, a commutative operator's in operand order.
type exprKey struct {
	op    token.Kind
	unary bool
	x, y  operand
}

// operand names one operand definition: its ID, or, with def None, the
// type and printed value of the constant a ConstInstr defines it as.
// The front end materialises every literal into its own temp, so
// `b + 1` twice yields two distinct `const 1` temps whose IDs would
// never match, while their runtime values provably do. -0.0 and 0.0
// print differently.
type operand struct {
	def int32
	typ ast.Type
	val string
}

func (o operand) less(p operand) bool {
	return cmp.Or(cmp.Compare(o.def, p.def), cmp.Compare(o.typ, p.typ), strings.Compare(o.val, p.val)) < 0
}

// keyOf value-numbers a pure expression instruction, and reports false
// for instructions CSE does not handle.
func keyOf(s *ssa.SSA, in ir.Instr) (exprKey, bool) {
	switch in := in.(type) {
	case *ir.UnaryInstr:
		return exprKey{op: in.Op, unary: true, x: operandOf(s, s.UsesOf(in)[0])}, true
	case *ir.BinaryInstr:
		uds := s.UsesOf(in)
		x, y := operandOf(s, uds[0]), operandOf(s, uds[1])
		if commutative(in.Op) && y.less(x) {
			x, y = y, x
		}
		return exprKey{op: in.Op, x: x, y: y}, true
	}
	return exprKey{}, false
}

func operandOf(s *ssa.SSA, d int32) operand {
	if def := s.Defs[d]; def.Kind == ssa.DefInstr {
		if c, ok := s.Instr(def.Site).(*ir.ConstInstr); ok {
			return operand{def: ssa.None, typ: c.Val.Type, val: c.Val.String()}
		}
	}
	return operand{def: d}
}
