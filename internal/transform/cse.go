package transform

import (
	"strconv"

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
	nd := defCounts(s)

	table := make(map[string]int32)
	var walk func(b *ir.Block)
	walk = func(b *ir.Block) {
		var added []string
		for idx, in := range b.Instrs {
			key := exprKey(s, in)
			if key == "" {
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

// exprKey value-numbers a pure expression instruction, or returns ""
// for instructions CSE does not handle.
func exprKey(s *ssa.SSA, in ir.Instr) string {
	switch in := in.(type) {
	case *ir.UnaryInstr:
		return "u" + in.Op.String() + ":" + opKey(s, s.UsesOf(in)[0])
	case *ir.BinaryInstr:
		uds := s.UsesOf(in)
		x, y := opKey(s, uds[0]), opKey(s, uds[1])
		if commutative(in.Op) && y < x {
			x, y = y, x
		}
		return "b" + in.Op.String() + ":" + x + ":" + y
	}
	return ""
}

// opKey names one operand definition for value numbering. Definitions
// produced by a ConstInstr are keyed by the constant's type and value
// rather than the definition ID: the front end materialises every
// literal into its own temp, so `b + 1` twice yields two distinct
// `const 1` temps whose IDs would never match, while their runtime
// values provably do.
func opKey(s *ssa.SSA, d int32) string {
	if def := s.Defs[d]; def.Kind == ssa.DefInstr {
		if c, ok := s.Instr(def.Site).(*ir.ConstInstr); ok {
			return "c" + strconv.Itoa(int(c.Val.Type)) + ":" + c.Val.String()
		}
	}
	return "#" + strconv.Itoa(int(d))
}
