package transform

import (
	"fsicp/internal/ir"
	"fsicp/internal/sem"
	"fsicp/internal/ssa"
	"fsicp/internal/token"
)

// dseFunc is the dead-store-elimination pass for one function: it
// deletes pure computations whose result is never observed. Run after
// copy propagation, which is what strands stores — an operand
// redirected past a copy leaves the copy useless — and before CSE, so
// the dominator walk no longer sees the corpses.
//
// Deleting a store can strand the stores feeding it, so one worklist
// runs over def-use edges: it starts with every dead store, deletes
// each in place (ssa.DeleteStore), and adds an operand's store when its
// last use goes. A dead store is never the last definition on a path to
// a use or φ, so deleting it moves no φ and no reaching definition:
// the worklist reaches the fixed point of deleting and rebuilding until
// nothing is dead. The overlay is renumbered once at the end.
func (st *optState) dseFunc(i int) PassReport {
	pr := PassReport{Pass: PassDSE}
	s := st.overlay(i)
	var work []ir.Instr
	for _, b := range s.Dom.RPO {
		for _, in := range b.Instrs {
			if deadStore(s, in) {
				work = append(work, in)
			}
		}
	}
	var operands []int32
	for len(work) > 0 {
		in := work[len(work)-1]
		work = work[:len(work)-1]
		if !deadStore(s, in) {
			continue // queued again by an instruction that read it twice
		}
		operands = append(operands[:0], s.UsesOf(in)...)
		s.DeleteStore(in)
		pr.DeadStores++
		for _, d := range operands {
			if def := s.Defs[d]; def.Kind == ssa.DefInstr && deadStore(s, s.Instr(def.Site)) {
				work = append(work, s.Instr(def.Site))
			}
		}
	}
	if pr.DeadStores > 0 {
		s.RenumberInstrs()
	}
	return pr
}

// deadStore reports whether in may be deleted: a pure computation
// whose destination is a local or temporary and whose definition has
// no uses at all.
//
//   - Only const/copy/unary/binary qualify; binary QUO/REM are kept
//     because division can abort at run time (the interpreter stops on
//     division by zero), and deleting one would change observable
//     behaviour.
//   - Formals and globals are excluded: both are observable at
//     procedure exit (by-reference returns, scc.Result.ExitValue).
//   - "No uses" covers every reader the overlay tracks — instruction
//     operands, φ arguments, and terminator operands. Ret.Val is a
//     terminator use, so the store feeding a function's result is
//     protected automatically.
func deadStore(s *ssa.SSA, in ir.Instr) bool {
	switch b := in.(type) {
	case *ir.ConstInstr, *ir.CopyInstr, *ir.UnaryInstr:
	case *ir.BinaryInstr:
		if b.Op == token.QUO || b.Op == token.REM {
			return false
		}
	default:
		return false
	}
	dst := in.Defs()[0]
	if dst.Kind != sem.KindLocal && dst.Kind != sem.KindTemp {
		return false
	}
	defs := s.DefsOf(in)
	return len(defs) == 1 && s.Defs[defs[0]].Kind == ssa.DefInstr && s.Defs[defs[0]].FirstUse == ssa.None
}
