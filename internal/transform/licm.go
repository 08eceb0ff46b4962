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
// Moves preserve the CFG, and a hoisted const keeps its ID: the
// overlay edit (ssa.HoistConst) only moves its definition to the new
// block.
func (st *optState) licmFunc(i int) PassReport {
	pr := PassReport{Pass: PassLICM}
	s := st.overlay(i)
	fn := s.Fn
	nd := st.defCounts(i)

	inLoop := make([]bool, len(fn.Blocks))
	var seen []int32 // entryReachesRealUse's stamps, made on first use
	gen := int32(0)
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
					if seen == nil {
						seen = make([]int32, len(s.Defs))
					}
					gen++
					if entryReachesRealUse(s, s.EntryDefs[vi], seen, gen) {
						continue
					}
					moves = append(moves, hoist{lb, c})
				}
			}
			for _, m := range moves {
				s.HoistConst(m.instr, m.block, pre)
				pr.HoistedConsts++
			}
			for _, lb := range loop {
				inLoop[lb.Index] = false
			}
		}
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
// any instruction or terminator use, following φ chains. It stamps the
// definitions it visits with gen, which is unique to the query. None,
// the entry slot of a variable the graft took over, reaches nothing.
func entryReachesRealUse(s *ssa.SSA, d int32, seen []int32, gen int32) bool {
	if d == ssa.None {
		return false
	}
	var walk func(d int32) bool
	walk = func(d int32) bool {
		if seen[d] == gen {
			return false
		}
		seen[d] = gen
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
