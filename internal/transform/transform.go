// Package transform implements the paper's transformation step — the
// output of interprocedural constant propagation materialised in the
// program representation during the backward walk of the compilation
// model (its Figure 2, step 6) — grown into a multi-pass SSA
// optimization pipeline.
//
// Entry points:
//
//   - CountSubstitutions measures the Metzger–Stroud metric used by the
//     paper's Table 5: the number of intraprocedural constant
//     substitutions enabled by a given interprocedural solution. A
//     substitution is one executable operand occurrence of a
//     source-level variable (formal, local, or global — not a compiler
//     temporary) whose reaching definition the propagator proves
//     constant.
//
//   - Optimize rewrites the IR in place through a pipeline of passes
//     scheduled by the driver pass manager, sharded per function:
//     constant folding + dead-branch deletion (the paper's transform,
//     driven by SCC edge executability), copy propagation, local CSE
//     over the dominator tree, and LICM for loop-invariant constants.
//     The fold pass alone is the original paper model. Every pass
//     combination preserves the interpreter-differential property: the
//     reference interpreter produces byte-identical output on the
//     transformed program, independent of worker count.
//
//   - MeasureEliminations is the non-destructive preview: how many
//     instructions and branches the fold pass would eliminate, per
//     procedure, without touching the IR (watch-mode deltas use it).
package transform

import (
	"fsicp/internal/icp"
	"fsicp/internal/ir"
	"fsicp/internal/lattice"
	"fsicp/internal/scc"
	"fsicp/internal/sem"
)

// EnvFn supplies the interprocedural entry environment of a procedure.
type EnvFn func(p *sem.Proc) lattice.Env[*sem.Var]

// Count is the substitution report.
type Count struct {
	Substitutions     int
	ByProc            map[*sem.Proc]int
	FoldedBranches    int
	UnreachableBlocks int
}

// CountSubstitutions runs one intraprocedural SCC per reachable
// procedure, seeded with env(p), and counts constant substitutions.
// This mirrors the paper's flow-insensitive pipeline, which defers the
// intraprocedural propagation to code-generation time; for the
// flow-sensitive method the numbers match its interleaved analysis.
func CountSubstitutions(ctx *icp.Context, env EnvFn) Count {
	c := Count{ByProc: make(map[*sem.Proc]int)}
	for i, p := range ctx.CG.Reachable {
		s := ctx.SSA(i)
		r := scc.Run(s, scc.Options{Entry: scc.Frame(s.Fn, env(p))})
		n := countProc(r)
		c.ByProc[p] = n
		c.Substitutions += n
		for _, b := range s.Dom.RPO {
			if !r.BlockExec[b.Index] {
				c.UnreachableBlocks++
				continue
			}
			if _, ok := b.Term.(*ir.If); ok {
				if cond := r.ValueOf(s.TermUsesOf(b)[0]); cond.IsConst() {
					c.FoldedBranches++
				}
			}
		}
	}
	return c
}

func sourceVar(v *sem.Var) bool { return v.Kind != sem.KindTemp }

func countProc(r *scc.Result) int {
	s := r.S
	n := 0
	for _, b := range s.Dom.RPO {
		if !r.BlockExec[b.Index] {
			continue
		}
		for _, in := range b.Instrs {
			uds := s.UsesOf(in)
			for k, v := range in.Uses() {
				if sourceVar(v) && r.ValueOf(uds[k]).IsConst() {
					n++
				}
			}
		}
		if b.Term != nil {
			tds := s.TermUsesOf(b)
			for k, v := range b.Term.Uses() {
				if sourceVar(v) && r.ValueOf(tds[k]).IsConst() {
					n++
				}
			}
		}
	}
	return n
}

// RemoveDeadProcedures deletes procedures that cannot execute under the
// analysis: statically unreachable from main, or reachable only through
// call sites the flow-sensitive solution proved dead. Calls inside dead
// procedures disappear with them. Returns the removed procedures'
// names. The fold pass should run first so dead call sites are already
// gone from live code; res, the analysis of ctx, answers deadness on
// the call graph it ran on, which the fold rebuilt.
func RemoveDeadProcedures(ctx *icp.Context, res *icp.Result) []string {
	prog := ctx.Prog
	keep := make(map[*sem.Proc]bool)
	for _, p := range ctx.CG.Reachable {
		if i := res.CG.PosOf(p); i < 0 || !res.Dead(i) {
			keep[p] = true
		}
	}
	// A kept procedure may still call a dead one through a call site
	// the analysis proved unreachable but fold did not prune (e.g. no
	// constant condition guarded it). Keep callees of surviving call
	// sites to stay executable.
	changed := true
	for changed {
		changed = false
		for p := range keep {
			for _, call := range prog.FuncOf[p].Calls {
				if !keep[call.Callee] {
					keep[call.Callee] = true
					changed = true
				}
			}
		}
	}

	var removed []string
	var funcs []*ir.Func
	var procs []*sem.Proc
	for _, fn := range prog.Funcs {
		if keep[fn.Proc] {
			funcs = append(funcs, fn)
			procs = append(procs, fn.Proc)
			continue
		}
		removed = append(removed, fn.Proc.Name)
		delete(prog.FuncOf, fn.Proc)
		delete(prog.Sem.ProcByName, fn.Proc.Name)
	}
	prog.Funcs = funcs
	prog.Sem.Procs = procs
	for i, p := range procs {
		p.Index = i
	}
	ctx.MR.Renumber(procs)
	refreshContext(ctx)
	return removed
}
