package jumpfunc

import (
	"fsicp/internal/ast"
	"fsicp/internal/icp"
	"fsicp/internal/ir"
	"fsicp/internal/lattice"
	"fsicp/internal/scc"
	"fsicp/internal/sem"
)

// Return jump functions (Grove–Torczon): a function's return value is
// summarised as a function of its formal parameters, and an argument
// that is syntactically a call to such a function evaluates through the
// summary. The paper compared against Grove and Torczon's *No Return
// Jump Function* numbers (its Table 5 note), so returns are off by
// default; AnalyzeWithReturns enables them for the ablation experiment.
//
// Scope: a return summary is built from the function's `return e`
// statements under the same kind ladder as forward jump functions
// (literal / intra constant / pass-through formal / polynomial over
// unmodified formals). Only arguments that are syntactically calls
// evaluate through summaries; a returned constant that flows through an
// intermediate assignment is not tracked (that is the framework's
// documented weakness the paper's flow-sensitive method does not have).

// Options configures a jump-function analysis.
type Options struct {
	Kind    Kind
	Returns bool // enable return jump functions
}

// callFn is the jump function of an argument that is a direct call:
// evaluate the argument jump functions at the caller environment, bind
// them to the callee's formals, and evaluate the callee's return
// summary.
type callFn struct {
	callee *sem.Proc
	args   []*Fn
	rets   []*Fn // the callee's return summaries (over callee formals)
}

// AnalyzeWithReturns runs the jump-function framework with optional
// return jump functions.
func AnalyzeWithReturns(ctx *icp.Context, opts Options) *Result {
	res := &Result{
		Ctx:     ctx,
		Kind:    opts.Kind,
		Formals: make(map[*sem.Var]lattice.Elem),
		Fns:     make(map[*ir.CallInstr][]*Fn),
		ArgVals: make(map[*ir.CallInstr][]lattice.Elem),
		Intra:   make(map[*sem.Proc]*scc.Result),
	}
	run(ctx, opts, res)
	return res
}

// buildReturnFns builds the per-return summaries for every reachable
// function.
func buildReturnFns(ctx *icp.Context, res *Result, kind Kind) map[*sem.Proc][]*Fn {
	out := make(map[*sem.Proc][]*Fn)
	for _, p := range ctx.CG.Reachable {
		if !p.IsFunc {
			continue
		}
		var fns []*Fn
		collectReturns(p.Decl.Body, func(e ast.Expr) {
			fns = append(fns, buildValueFn(ctx, res, kind, p, e, nil))
		})
		if len(fns) == 0 {
			// A function that never returns explicitly yields its zero
			// value only by falling off the end; treat as unknown.
			fns = []*Fn{{Const: lattice.BottomElem()}}
		}
		// INTRA refinement: the plain intraprocedural fixpoint may know
		// the meet of all returns even when the syntax does not.
		if kind != Literal {
			if rv := res.Intra[p].ReturnValue(); rv.IsConst() {
				fns = []*Fn{{Const: rv}}
			}
		}
		out[p] = fns
	}
	return out
}

// collectReturns walks a body and yields every return expression.
func collectReturns(n ast.Node, yield func(ast.Expr)) {
	ast.Walk(n, func(m ast.Node) bool {
		if r, ok := m.(*ast.ReturnStmt); ok && r.Value != nil {
			yield(r.Value)
		}
		return true
	})
}

// evalReturn computes the callee's return value given evaluated
// argument values.
func (c *callFn) eval(argVals []lattice.Elem) lattice.Elem {
	env := func(v *sem.Var) lattice.Elem {
		if v.Kind == sem.KindFormal && v.Owner == c.callee && v.Index < len(argVals) {
			return argVals[v.Index]
		}
		return lattice.BottomElem()
	}
	acc := lattice.TopElem()
	for _, r := range c.rets {
		acc = lattice.Meet(acc, r.Eval(env))
	}
	if acc.IsTop() {
		return lattice.BottomElem()
	}
	return acc
}

// Eval for a call-typed jump function.
func (f *Fn) evalCall(env func(*sem.Var) lattice.Elem) lattice.Elem {
	vals := make([]lattice.Elem, len(f.Call.args))
	for i, a := range f.Call.args {
		vals[i] = a.Eval(env)
	}
	return f.Call.eval(vals)
}

// buildValueFn summarises an arbitrary value expression (argument or
// return) as a jump function over the enclosing procedure's formals.
// retFns is non-nil when return jump functions are enabled.
func buildValueFn(ctx *icp.Context, res *Result, kind Kind, owner *sem.Proc, e ast.Expr, retFns map[*sem.Proc][]*Fn) *Fn {
	if v, ok := litValue(e); ok {
		return &Fn{Const: lattice.Const(v)}
	}
	if kind == Literal {
		return &Fn{Const: lattice.BottomElem()}
	}
	if kind == PassThrough || kind == Polynomial {
		if fv := unmodifiedFormal(ctx, owner, e); fv != nil {
			return &Fn{Formal: fv}
		}
	}
	if kind == Polynomial {
		if p := buildPoly(ctx, owner, e); p != nil {
			return &Fn{Poly: p}
		}
	}
	if retFns != nil {
		if call, ok := stripParens(e).(*ast.CallExpr); ok {
			if callee := owner.Callees[call]; callee != nil && callee.IsFunc {
				if rets, ok := retFns[callee]; ok {
					args := make([]*Fn, len(call.Args))
					for i, a := range call.Args {
						args[i] = buildValueFn(ctx, res, kind, owner, a, retFns)
					}
					return &Fn{Call: &callFn{callee: callee, args: args, rets: rets}}
				}
			}
		}
	}
	return &Fn{Const: lattice.BottomElem()}
}
