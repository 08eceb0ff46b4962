package transform

import (
	"fsicp/internal/icp"
	"fsicp/internal/ir"
	"fsicp/internal/scc"
	"fsicp/internal/sem"
)

// ProcElim is the per-procedure elimination preview: what the fold pass
// would do to this procedure under the given entry environment.
type ProcElim struct {
	Proc *sem.Proc
	// Instrs counts eliminable instructions: those whose result is a
	// proven constant (foldable to a constant load) plus every
	// instruction inside a non-executable block (deletable outright).
	Instrs int
	// Branches counts conditional branches with exactly one executable
	// out-edge (foldable to jumps).
	Branches int
}

// MeasureEliminations previews the fold pass without mutating anything:
// one intraprocedural SCC run per reachable procedure, seeded with
// env(p), on the context's SSA form. Procedures with nothing to
// eliminate are omitted; the order is CG.Reachable order.
//
// Sessions can call this safely — unlike Optimize it never
// rewrites the IR — which is how watch mode reports elimination deltas
// per edit.
func MeasureEliminations(ctx *icp.Context, env EnvFn) []ProcElim {
	var out []ProcElim
	for i, p := range ctx.CG.Reachable {
		s := ctx.SSA(i)
		r := scc.Run(s, scc.Options{Entry: scc.Frame(s.Fn, env(p))})
		e := ProcElim{Proc: p}
		for _, b := range s.Dom.RPO {
			if !r.BlockExec[b.Index] {
				e.Instrs += len(b.Instrs)
				continue
			}
			for _, in := range b.Instrs {
				switch in.(type) {
				case *ir.CopyInstr, *ir.UnaryInstr, *ir.BinaryInstr:
					if r.ValueOf(s.DefsOf(in)[0]).IsConst() {
						e.Instrs++
					}
				}
			}
			if iff, ok := b.Term.(*ir.If); ok {
				thenX := r.EdgeExecutable(b.Index, iff.Then.Index)
				elseX := r.EdgeExecutable(b.Index, iff.Else.Index)
				if thenX != elseX {
					e.Branches++
				}
			}
		}
		if e.Instrs > 0 || e.Branches > 0 {
			out = append(out, e)
		}
	}
	return out
}
