package transform

import (
	"fsicp/internal/ir"
	"fsicp/internal/sem"
	"fsicp/internal/ssa"
)

// licmFunc hoists loop-invariant constant assignments — typically
// materialised by the fold pass from interprocedural entry environments
// — out of natural loops, into the loop header's immediate dominator.
//
// A constant assignment v = c in the loop is hoisted when:
//
//   - v is a local or temporary. Globals and formals have observers the
//     overlay does not record as uses (callees read globals; by-ref
//     formals are copied back to the caller at return), so executing
//     their assignment on a path that previously skipped it could be
//     observed. Locals and temps are only observable through recorded
//     uses.
//   - v has exactly one real definition (so no φ merges competing
//     values whose order the move would change), and
//   - v's entry definition reaches no instruction or terminator use,
//     even transitively through φs — meaning no executable path reads
//     v before the assignment. Executing the assignment earlier (and
//     on loop-skipping paths) is then unobservable: every actual read
//     still sees c.
//
// Moves preserve the CFG, so the overlay stays valid; only the
// instruction numbering is redone (ssa.RenumberInstrs, which also moves
// each hoisted definition to its new block).
func (st *optState) licmFunc(i int) PassReport {
	pr := PassReport{Pass: PassLICM}
	s := st.overlay(i)
	fn := s.Fn
	nd := defCounts(s)

	inLoop := make([]bool, len(fn.Blocks))
	type hoist struct {
		block *ir.Block
		instr *ir.ConstInstr
	}
	for _, b := range s.Dom.RPO {
		for _, h := range b.Succs {
			if !s.Dom.Dominates(h, b) {
				continue // not a natural back edge
			}
			pre := s.Dom.Idom(h)
			if pre == nil {
				continue // the entry block heads the loop
			}
			loop := naturalLoop(s, h, b, inLoop)

			var moves []hoist
			for _, lb := range loop {
				for _, in := range lb.Instrs {
					c, ok := in.(*ir.ConstInstr)
					if !ok {
						continue
					}
					if !isLocalish(c.Dst) {
						continue
					}
					vi := s.Defs[s.DefsOf(c)[0]].Var
					if nd[vi] != 1 {
						continue
					}
					if entryReachesRealUse(s, s.EntryDefs[vi]) {
						continue
					}
					moves = append(moves, hoist{lb, c})
				}
			}
			for _, m := range moves {
				removeInstr(m.block, m.instr)
				pre.Instrs = append(pre.Instrs, m.instr)
				pr.HoistedConsts++
			}
			for _, lb := range loop {
				inLoop[lb.Index] = false
			}
		}
	}
	if pr.HoistedConsts > 0 {
		s.RenumberInstrs()
	}
	return pr
}

// naturalLoop collects the natural loop of back edge latch→header: the
// header plus every block that reaches the latch without passing
// through the header. mark is scratch space (len(fn.Blocks), all false
// on entry; the caller clears the returned blocks' marks).
func naturalLoop(s *ssa.SSA, header, latch *ir.Block, mark []bool) []*ir.Block {
	loop := []*ir.Block{header}
	mark[header.Index] = true
	if !mark[latch.Index] {
		mark[latch.Index] = true
		loop = append(loop, latch)
	}
	for stack := []*ir.Block{latch}; len(stack) > 0; {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range b.Preds {
			if !s.Dom.Reachable(p) || mark[p.Index] {
				continue
			}
			mark[p.Index] = true
			loop = append(loop, p)
			stack = append(stack, p)
		}
	}
	return loop
}

// isLocalish reports variables whose every observation is a recorded
// overlay use: locals and compiler temporaries.
func isLocalish(v *sem.Var) bool {
	return v.Kind == sem.KindLocal || v.Kind == sem.KindTemp
}

// entryReachesRealUse reports whether d (an entry definition) flows to
// any instruction or terminator use, following φ chains.
func entryReachesRealUse(s *ssa.SSA, d int32) bool {
	seen := make(map[int32]bool)
	var walk func(d int32) bool
	walk = func(d int32) bool {
		if seen[d] {
			return false
		}
		seen[d] = true
		for u := s.Defs[d].FirstUse; u != ssa.None; u = s.Uses[u].Next {
			switch r := s.Uses[u]; r.Kind {
			case ssa.UseInstr, ssa.UseTerm:
				return true
			case ssa.UsePhi:
				if walk(s.Phis[r.Block][r.Site].Def) {
					return true
				}
			}
		}
		return false
	}
	return walk(d)
}

// removeInstr deletes one instruction from a block by identity.
func removeInstr(b *ir.Block, in ir.Instr) {
	for i, x := range b.Instrs {
		if x == in {
			b.Instrs = append(b.Instrs[:i], b.Instrs[i+1:]...)
			return
		}
	}
	panic("transform: instruction not in block")
}
