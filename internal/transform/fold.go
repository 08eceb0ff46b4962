package transform

import (
	"fsicp/internal/ir"
	"fsicp/internal/scc"
	"fsicp/internal/sem"
)

// foldFunc is the constant-folding + dead-branch-deletion pass for one
// function: the paper's transformation step (Figure 2, step 6).
//
//  1. Interprocedural constants are materialised as assignments at the
//     procedure entry, for referenced variables only (paper §3:
//     "Assignment statements are created only for those variables that
//     are referenced in that procedure"). They are grafted into the
//     overlay in place (ssa.GraftEntryConsts), each taking over its
//     variable's entry definition.
//  2. A fresh intraprocedural SCC run (the inserted assignments carry
//     the interprocedural facts) drives the rewrites: instructions with
//     constant results become constant loads in place, and conditional
//     branches with exactly one executable out-edge (per
//     scc.Result.EdgeExecutable) become jumps.
//  3. When a branch folded — or the function already had statically
//     unreachable blocks — the CFG is rebuilt and unreachable blocks
//     are deleted, which invalidates this function's overlay: the next
//     pass builds it again. Otherwise the overlay stays valid.
func (st *optState) foldFunc(i int) PassReport {
	pr := PassReport{Pass: PassFold}
	fn := st.fns[i]
	p := fn.Proc
	env := st.envs[i]

	var entry []*ir.ConstInstr
	for _, v := range fn.AllVars {
		e := env.Get(v)
		if !e.IsConst() {
			continue
		}
		if v.Kind != sem.KindFormal && !v.IsGlobal() {
			continue
		}
		if !st.ctx.MR.DRef(p).Has(v) {
			continue
		}
		entry = append(entry, &ir.ConstInstr{Dst: v, Val: e.Val()})
		pr.EntryAssignments++
	}
	s := st.overlay(i)
	s.GraftEntryConsts(entry)
	r := scc.Run(s, scc.Options{Entry: scc.Frame(fn, env), Transient: true})

	for _, b := range s.Dom.RPO {
		if !r.BlockExec[b.Index] {
			continue
		}
		for idx, in := range b.Instrs {
			switch in.(type) {
			case *ir.CopyInstr, *ir.UnaryInstr, *ir.BinaryInstr:
				d := s.DefsOf(in)[0]
				if v := r.ValueOf(d); v.IsConst() {
					s.RewriteToConst(b, idx, &ir.ConstInstr{Dst: s.Var(d), Val: v.Val()})
					pr.FoldedInstrs++
				}
			}
		}
		if iff, ok := b.Term.(*ir.If); ok {
			thenX := r.EdgeExecutable(b.Index, iff.Then.Index)
			elseX := r.EdgeExecutable(b.Index, iff.Else.Index)
			if thenX != elseX {
				target := iff.Then
				if elseX {
					target = iff.Else
				}
				b.Term = &ir.Jump{Target: target}
				pr.FoldedBranches++
			}
		}
	}
	r.Release()

	// Rebuilding the CFG reindexes blocks (invalidating the overlay),
	// so only do it when it can delete something: a folded branch, or
	// unreachable blocks that predate this pass (code after return).
	if pr.FoldedBranches > 0 || len(s.Dom.RPO) != len(fn.Blocks) {
		before := countInstrs(fn)
		pr.RemovedBlocks = ir.RebuildCFG(fn)
		pr.RemovedInstrs = before - countInstrs(fn)
		st.ssas[i] = nil
	}
	return pr
}

func countInstrs(fn *ir.Func) int {
	n := 0
	for _, b := range fn.Blocks {
		n += len(b.Instrs)
	}
	return n
}
