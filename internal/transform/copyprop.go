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
	// instruction). It returns ssa.None when there is no link to follow.
	step := func(d int32, b *ir.Block, pos int) int32 {
		def := s.Defs[d]
		if def.Kind != ssa.DefInstr {
			return ssa.None
		}
		cp, ok := s.Instr(def.Site).(*ir.CopyInstr)
		if !ok {
			return ssa.None
		}
		src := s.UsesOf(cp)[0]
		switch sd := s.Defs[src]; sd.Kind {
		case ssa.DefEntry:
			if nd[sd.Var] != 0 {
				return ssa.None
			}
			return src
		case ssa.DefInstr:
			if nd[sd.Var] != 1 {
				return ssa.None
			}
			if int(sd.Block) == b.Index {
				if pos >= 0 && int(sd.Site) >= pos {
					return ssa.None
				}
				return src
			}
			if !s.Dom.Dominates(fn.Blocks[sd.Block], b) {
				return ssa.None
			}
			return src
		}
		return ssa.None
	}
	follow := func(d int32, b *ir.Block, pos int) (int32, bool) {
		moved := false
		for {
			next := step(d, b, pos)
			if next == ssa.None {
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
		tds := s.TermUsesOf(b)
		for k := range tds {
			if nd2, moved := follow(tds[k], b, -1); moved {
				s.ReplaceTermOperand(b, k, nd2)
				pr.CopiesPropagated++
			}
		}
	}
	return pr
}
