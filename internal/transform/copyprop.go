package transform

import (
	"fsicp/internal/ir"
	"fsicp/internal/ssa"
)

// copyPropFunc rewrites operands to read a copy's source directly:
// for a use of d whose reaching definition is the copy d = s, the use
// becomes a use of s when s provably holds the same value there. Copy
// chains are followed transitively (d = s, s = r ⇒ uses of d read r).
//
// Validity for one step, with S the reaching definition of s at the
// copy:
//
//   - S is the entry definition and s has no other definition in the
//     function — s is immutable, so its value at the use equals its
//     value at the copy; or
//   - S is s's only real definition (instruction or φ counts include
//     call may-defs and alias clobbers, so interprocedural writes
//     block this) and S's block dominates the use — then S is the
//     reaching definition of s at the use, too.
//
// Call arguments are never rewritten: replacing an lvalue actual would
// change which variable the callee writes through (ir.CallInstr.ByRef).
func (st *optState) copyPropFunc(i int) PassReport {
	pr := PassReport{Pass: PassCopyProp}
	s := st.overlay(i)
	fn := s.Fn
	nd := defCounts(s)

	// step follows one copy link for a use in block b; pos is the use's
	// instruction ID for same-block ordering (block-order numbering is
	// current: ssa.Build numbers, fold's rewrites keep IDs and its graft
	// renumbers), or -1 for a terminator use (which follows every
	// instruction).
	step := func(d *ssa.Definition, b *ir.Block, pos int) *ssa.Definition {
		if d.Kind != ssa.DefInstr {
			return nil
		}
		cp, ok := d.Instr.(*ir.CopyInstr)
		if !ok {
			return nil
		}
		src := s.UsesOf(cp)[0]
		switch src.Kind {
		case ssa.DefEntry:
			if nd[fn.VarOrd(cp.Src)] != 0 {
				return nil
			}
			return src
		case ssa.DefInstr:
			if nd[fn.VarOrd(cp.Src)] != 1 {
				return nil
			}
			if src.Block == b {
				if pos >= 0 && src.Instr.InstrID() >= pos {
					return nil
				}
				return src
			}
			if !s.Dom.Dominates(src.Block, b) {
				return nil
			}
			return src
		}
		return nil
	}
	follow := func(d *ssa.Definition, b *ir.Block, pos int) (*ssa.Definition, bool) {
		moved := false
		for {
			next := step(d, b, pos)
			if next == nil {
				return d, moved
			}
			d = next
			moved = true
		}
	}

	for _, b := range s.Dom.RPO {
		for _, in := range b.Instrs {
			if _, isCall := in.(*ir.CallInstr); isCall {
				continue
			}
			uds := s.UsesOf(in)
			for k := range uds {
				if nd2, moved := follow(uds[k], b, in.InstrID()); moved {
					s.ReplaceUseOperand(b, in, k, nd2)
					pr.CopiesPropagated++
				}
			}
		}
		tds := s.TermUses[b.Index]
		for k := range tds {
			if nd2, moved := follow(tds[k], b, -1); moved {
				s.ReplaceTermOperand(b, k, nd2)
				pr.CopiesPropagated++
			}
		}
	}
	return pr
}
