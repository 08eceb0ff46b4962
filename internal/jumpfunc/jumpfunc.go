// Package jumpfunc implements the forward jump-function interprocedural
// constant propagation framework of Callahan, Cooper, Kennedy and
// Torczon (SIGPLAN 1986), with the jump-function implementations whose
// precision Grove and Torczon studied (PLDI 1993) and against which the
// paper compares its methods (its Figure 1 and Table 5):
//
//	LITERAL        — an argument is constant iff it is an immediate
//	                 literal.
//	INTRA          — the flow-sensitive Intraprocedural Constant jump
//	                 function: the argument's value under one
//	                 intraprocedural SCC analysis of the caller with
//	                 formals (and globals) unknown.
//	PASS-THROUGH   — INTRA, plus the identity function for arguments
//	                 that are unmodified formals of the caller.
//	POLYNOMIAL     — INTRA, plus symbolic polynomials (+, -, *, unary
//	                 minus) over unmodified formals of the caller.
//
// Jump functions are built once, before interprocedural propagation; an
// optimistic fixpoint then evaluates them at the current formal values.
// Unlike Grove and Torczon's implementation (which did not handle call
// graph cycles), the fixpoint here simply iterates until stable, which
// is sound on recursive programs.
//
// Globals are not summarised by jump functions: the paper (§5) notes
// that building a jump function per global per call site adds
// substantial overhead, and the Grove–Torczon numbers it compares
// against cover formal parameters.
package jumpfunc

import (
	"fmt"

	"fsicp/internal/ast"
	"fsicp/internal/icp"
	"fsicp/internal/ir"
	"fsicp/internal/lattice"
	"fsicp/internal/scc"
	"fsicp/internal/sem"
	"fsicp/internal/token"
	"fsicp/internal/val"
)

// Kind selects a baseline jump-function implementation
// (Callahan–Cooper–Kennedy–Torczon 1986; Grove–Torczon 1993). A value
// outside the four kinds runs as Intra.
type Kind int

const (
	// Literal passes only literal actuals.
	Literal Kind = iota
	// Intra passes actuals constant under the caller's
	// intraprocedural analysis.
	Intra
	// PassThrough adds the identity on an unmodified caller formal.
	PassThrough
	// Polynomial adds polynomials over caller formals.
	Polynomial
)

// String names the kind; an out-of-range value renders as
// "unknown(N)".
func (k Kind) String() string {
	switch k {
	case Literal:
		return "literal"
	case Intra:
		return "intra"
	case PassThrough:
		return "pass-through"
	case Polynomial:
		return "polynomial"
	}
	return fmt.Sprintf("unknown(%d)", int(k))
}

// Fn is one jump function: the value of one argument at one call site
// as a function of the caller's formal parameters.
type Fn struct {
	// Const is the constant part (used when the others are unset): the
	// literal value, the INTRA value, or ⊥.
	Const lattice.Elem
	// Formal, if set, makes the function the identity on that caller
	// formal (PASS-THROUGH).
	Formal *sem.Var
	// Poly, if set, is a polynomial over caller formals (POLYNOMIAL).
	Poly *PolyExpr
	// Call, if set, evaluates through a callee's return jump function
	// (returns.go; only with Options.Returns).
	Call *callFn
}

// Eval evaluates the jump function at the given caller-formal values.
func (f *Fn) Eval(env func(*sem.Var) lattice.Elem) lattice.Elem {
	switch {
	case f.Call != nil:
		return f.evalCall(env)
	case f.Poly != nil:
		return f.Poly.Eval(env)
	case f.Formal != nil:
		return env(f.Formal)
	default:
		return f.Const
	}
}

// PolyExpr is a symbolic polynomial over caller formals.
type PolyExpr struct {
	Op   token.Kind // ADD, SUB, MUL, or SUB with Y nil for unary minus
	X, Y *PolyExpr
	Lit  *val.Value // leaf: literal
	Var  *sem.Var   // leaf: unmodified formal
}

// Eval folds the polynomial at the given formal values.
func (p *PolyExpr) Eval(env func(*sem.Var) lattice.Elem) lattice.Elem {
	switch {
	case p.Lit != nil:
		return lattice.Const(*p.Lit)
	case p.Var != nil:
		return env(p.Var)
	case p.Y == nil: // unary minus
		x := p.X.Eval(env)
		if !x.IsConst() {
			return x
		}
		v, ok := val.Unary(token.SUB, x.Val())
		if !ok {
			return lattice.BottomElem()
		}
		return lattice.Const(v)
	default:
		x, y := p.X.Eval(env), p.Y.Eval(env)
		if x.IsBottom() || y.IsBottom() {
			return lattice.BottomElem()
		}
		if x.IsTop() || y.IsTop() {
			return lattice.TopElem()
		}
		v, ok := val.Binary(p.Op, x.Val(), y.Val())
		if !ok {
			return lattice.BottomElem()
		}
		return lattice.Const(v)
	}
}

// Result is a jump-function ICP solution.
type Result struct {
	Ctx  *icp.Context
	Kind Kind

	// Formals maps every formal of every reachable procedure to its
	// final lattice value.
	Formals map[*sem.Var]lattice.Elem

	// Fns[call][i] is the jump function for the i-th argument.
	Fns map[*ir.CallInstr][]*Fn

	// ArgVals[call][i] is the jump function evaluated at the final
	// solution — the call-site constant-candidate view.
	ArgVals map[*ir.CallInstr][]lattice.Elem

	// Intra holds the caller-side SCC runs used to build INTRA values
	// (kinds other than Literal).
	Intra map[*sem.Proc]*scc.Result

	// ReturnFns holds the per-function return summaries when return
	// jump functions are enabled (see returns.go).
	ReturnFns map[*sem.Proc][]*Fn
}

// Analyze builds jump functions of the given kind for every reachable
// call site and runs the interprocedural fixpoint (without return jump
// functions — the configuration the paper compares against).
func Analyze(ctx *icp.Context, kind Kind) *Result {
	return AnalyzeWithReturns(ctx, Options{Kind: kind})
}

// run executes the framework for AnalyzeWithReturns.
func run(ctx *icp.Context, opts Options, res *Result) {
	kind := opts.Kind
	cg := ctx.CG

	// One plain intraprocedural SCC per procedure (formals and globals
	// unknown) supplies INTRA values for every kind except LITERAL.
	if kind != Literal {
		for i, p := range cg.Reachable {
			res.Intra[p] = scc.Run(ctx.SSA(i), scc.Options{})
		}
	}

	var retFns map[*sem.Proc][]*Fn
	if opts.Returns {
		retFns = buildReturnFns(ctx, res, kind)
		res.ReturnFns = retFns
	}

	for _, e := range cg.Edges {
		res.Fns[e.Site] = buildFns(ctx, res, kind, retFns, e.Caller, e.Site)
	}

	// Optimistic fixpoint: all formals start at ⊤ and are lowered by
	// meeting jump-function values over all call sites.
	for _, p := range cg.Reachable {
		for _, f := range p.Params {
			res.Formals[f] = lattice.TopElem()
		}
	}
	env := func(v *sem.Var) lattice.Elem {
		if e, ok := res.Formals[v]; ok {
			return e
		}
		return lattice.BottomElem()
	}
	for changed := true; changed; {
		changed = false
		for pos, p := range cg.Reachable {
			for fi, f := range p.Params {
				acc := lattice.TopElem()
				for _, e := range cg.In[pos] {
					fns := res.Fns[e.Site]
					if fi >= len(fns) {
						acc = lattice.BottomElem()
						break
					}
					acc = lattice.Meet(acc, fns[fi].Eval(env))
				}
				if len(cg.In[pos]) == 0 {
					acc = lattice.BottomElem() // main or dead root
				}
				if !acc.Eq(res.Formals[f]) {
					res.Formals[f] = acc
					changed = true
				}
			}
		}
	}
	// Demote residual ⊤ (a formal whose every call site is itself ⊤,
	// impossible after the fixpoint, or procedures never called).
	for f, e := range res.Formals {
		if e.IsTop() {
			res.Formals[f] = lattice.BottomElem()
		}
	}

	for _, e := range cg.Edges {
		fns := res.Fns[e.Site]
		vals := make([]lattice.Elem, len(fns))
		for i, fn := range fns {
			v := fn.Eval(env)
			if v.IsTop() {
				v = lattice.BottomElem()
			}
			vals[i] = v
		}
		res.ArgVals[e.Site] = vals
	}
}

// buildFns constructs the jump function for each argument of one call.
func buildFns(ctx *icp.Context, res *Result, kind Kind, retFns map[*sem.Proc][]*Fn, caller *sem.Proc, call *ir.CallInstr) []*Fn {
	fns := make([]*Fn, len(call.Args))
	for i := range call.Args {
		fns[i] = buildFn(ctx, res, kind, retFns, caller, call, i)
	}
	return fns
}

func buildFn(ctx *icp.Context, res *Result, kind Kind, retFns map[*sem.Proc][]*Fn, caller *sem.Proc, call *ir.CallInstr, i int) *Fn {
	syntax := call.ArgSyntax[i]
	if kind == Literal {
		if v, ok := litValue(syntax); ok {
			return &Fn{Const: lattice.Const(v)}
		}
		return &Fn{Const: lattice.BottomElem()}
	}

	if kind == PassThrough || kind == Polynomial {
		if fv := unmodifiedFormal(ctx, caller, syntax); fv != nil {
			return &Fn{Formal: fv}
		}
	}
	if kind == Polynomial {
		if p := buildPoly(ctx, caller, syntax); p != nil {
			return &Fn{Poly: p}
		}
	}
	if retFns != nil {
		if fn := buildValueFn(ctx, res, kind, caller, syntax, retFns); fn.Call != nil {
			return fn
		}
	}

	// INTRA fallback: the argument's value under the caller's plain
	// intraprocedural analysis.
	r := res.Intra[caller]
	v := r.ArgValue(call, i)
	if v.IsTop() {
		// Unreachable under the intraprocedural analysis alone; treat
		// as non-contributing is not expressible per-edge in this
		// framework, so be conservative.
		v = lattice.BottomElem()
	}
	return &Fn{Const: v}
}

func litValue(e ast.Expr) (val.Value, bool) {
	return sem.FoldNegatedLiteral(stripParens(e))
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

// unmodifiedFormal returns the caller formal a bare-identifier argument
// names, if that formal is never modified (directly or transitively) by
// the caller.
func unmodifiedFormal(ctx *icp.Context, caller *sem.Proc, e ast.Expr) *sem.Var {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	v := caller.Refs[id]
	if v == nil || v.Kind != sem.KindFormal || v.Owner != caller {
		return nil
	}
	if ctx.MR.Mod(caller).Has(v) {
		return nil
	}
	return v
}

// buildPoly converts an argument expression into a polynomial over
// literals and unmodified caller formals, or nil if it is not one.
func buildPoly(ctx *icp.Context, caller *sem.Proc, e ast.Expr) *PolyExpr {
	switch e := stripParens(e).(type) {
	case *ast.IntLit:
		v := val.Int(e.Value)
		return &PolyExpr{Lit: &v}
	case *ast.RealLit:
		v := val.Real(e.Value)
		return &PolyExpr{Lit: &v}
	case *ast.Ident:
		if fv := unmodifiedFormal(ctx, caller, e); fv != nil {
			return &PolyExpr{Var: fv}
		}
		return nil
	case *ast.UnaryExpr:
		if e.Op != token.SUB {
			return nil
		}
		x := buildPoly(ctx, caller, e.X)
		if x == nil {
			return nil
		}
		return &PolyExpr{Op: token.SUB, X: x}
	case *ast.BinaryExpr:
		switch e.Op {
		case token.ADD, token.SUB, token.MUL:
		default:
			return nil
		}
		x := buildPoly(ctx, caller, e.X)
		if x == nil {
			return nil
		}
		y := buildPoly(ctx, caller, e.Y)
		if y == nil {
			return nil
		}
		return &PolyExpr{Op: e.Op, X: x, Y: y}
	}
	return nil
}

// ConstantFormals returns p's formals the solution proves constant.
func (r *Result) ConstantFormals(p *sem.Proc) []*sem.Var {
	var out []*sem.Var
	for _, f := range p.Params {
		if r.Formals[f].IsConst() {
			out = append(out, f)
		}
	}
	return out
}

// EntryEnv converts the formal solution for p into an entry environment
// usable by the transformation phase (globals are not summarised by
// jump functions and stay unknown).
func (r *Result) EntryEnv(p *sem.Proc) lattice.Env[*sem.Var] {
	env := make(lattice.Env[*sem.Var])
	for _, f := range p.Params {
		if e := r.Formals[f]; e.IsConst() {
			env[f] = e
		}
	}
	return env
}
