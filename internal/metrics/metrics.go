// Package metrics computes the paper's evaluation metrics — the counts
// behind Tables 1–5:
//
//   - call-site constant candidates (Table 1/3): total arguments,
//     immediate-constant arguments, arguments a method proves constant
//     at the call site, and the per-call-site global constant
//     candidates (with the VIS visibility split);
//
//   - interprocedurally propagated constants (Table 2/4): formals and
//     globals constant at procedure entry and referenced there, counted
//     once per procedure regardless of the number of references —
//     the paper's headline metric;
//
//   - intraprocedural substitutions (Table 5) via package transform.
package metrics

import (
	"fmt"

	"fsicp/internal/ast"
	"fsicp/internal/icp"
	"fsicp/internal/jumpfunc"
	"fsicp/internal/sem"
)

// CallSite is a Table 1 / Table 3 row for one method.
type CallSite struct {
	Args      int // total actual arguments at reachable call sites
	Imm       int // immediate (literal) arguments
	ConstArgs int // arguments proved constant at their call sites
	GlobCand  int // block-data-initialised global candidates
	GlobPairs int // Σ per-call-site propagated global constants
	GlobVis   int // the visible-in-caller subset of GlobPairs
}

// Entry is a Table 2 / Table 4 row for one method.
type Entry struct {
	Formals       int // total formals of reachable procedures
	ConstFormals  int // formals constant at entry
	Procs         int // procedures reachable from main
	GlobalEntries int // Σ per-procedure entry-constant globals directly referenced
}

// CallSiteMetrics computes the call-site view of an ICP result.
func CallSiteMetrics(r *icp.Result) CallSite {
	var m CallSite
	ctx := r.Ctx
	for _, e := range ctx.CG.Edges {
		call := e.Site
		m.Args += len(call.Args)
		for i := range call.Args {
			if _, ok := immediate(call.ArgSyntax[i], r.Opts); ok {
				m.Imm++
			}
		}
		for _, v := range r.ArgVals[call] {
			if v.IsConst() {
				m.ConstArgs++
			}
		}
		m.GlobPairs += len(r.GlobalCallVals[call])
		m.GlobVis += len(r.VisibleCallGlobals[call])
	}
	m.GlobCand = globCand(r)
	return m
}

func globCand(r *icp.Result) int {
	n := 0
	for _, v := range r.Ctx.Prog.Sem.GlobalInit {
		if !r.Opts.PropagateFloats && v.IsFloat() {
			continue
		}
		n++
	}
	return n
}

func immediate(e ast.Expr, opts icp.Options) (struct{}, bool) {
	v, ok := sem.FoldNegatedLiteral(stripParens(e))
	if !ok {
		return struct{}{}, false
	}
	if !opts.PropagateFloats && v.IsFloat() {
		return struct{}{}, false
	}
	return struct{}{}, true
}

func stripParens(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// EntryMetrics computes the procedure-entry view of an ICP result.
func EntryMetrics(r *icp.Result) Entry {
	var m Entry
	ctx := r.Ctx
	m.Procs = len(ctx.CG.Reachable)
	for _, p := range ctx.CG.Reachable {
		m.Formals += len(p.Params)
		m.ConstFormals += len(r.ConstantFormals(p))
		// DREF(p) lies inside p's global segment.
		for _, g := range ctx.Prog.FuncOf[p].Globals() {
			if _, ok := r.EntryConstant(p, g); ok && ctx.MR.DRef[p].Has(g) {
				m.GlobalEntries++
			}
		}
	}
	return m
}

// JumpEntry computes the Table 2-style formal counts for a
// jump-function baseline (globals are not summarised there).
func JumpEntry(r *jumpfunc.Result) Entry {
	var m Entry
	m.Procs = len(r.Ctx.CG.Reachable)
	for _, p := range r.Ctx.CG.Reachable {
		m.Formals += len(p.Params)
		m.ConstFormals += len(r.ConstantFormals(p))
	}
	return m
}

// JumpCallSite computes the Table 1-style argument counts for a
// jump-function baseline.
func JumpCallSite(r *jumpfunc.Result) CallSite {
	var m CallSite
	for _, e := range r.Ctx.CG.Edges {
		call := e.Site
		m.Args += len(call.Args)
		for i := range call.Args {
			if _, ok := immediate(call.ArgSyntax[i], icp.Options{PropagateFloats: true}); ok {
				m.Imm++
			}
		}
		for _, v := range r.ArgVals[call] {
			if v.IsConst() {
				m.ConstArgs++
			}
		}
	}
	return m
}

// Pct formats n as a percentage of d ("14.9%"), or "-" when d is zero.
func Pct(n, d int) string {
	if d == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(n)/float64(d))
}
