package icp

import (
	"fsicp/internal/driver"
	"fsicp/internal/ir"
	"fsicp/internal/lattice"
	"fsicp/internal/sem"
	"fsicp/internal/val"
)

// fiSolution is the flow-insensitive solution (the paper's Figure 3).
// It doubles as the back-edge fallback for the flow-sensitive method.
type fiSolution struct {
	opts Options

	// formals maps every formal of every reachable procedure to its
	// flow-insensitive lattice value.
	formals map[*sem.Var]lattice.Elem

	// globalConsts are block-data-initialised globals never modified
	// anywhere in the program: constant program-wide.
	globalConsts map[*sem.Var]val.Value

	// fpBind records pass-through bindings: fpBind[fp0] lists the
	// callee formals that received fp0's constant and must be lowered
	// if fp0 is.
	fpBind map[*sem.Var][]*sem.Var

	// edgeClass caches, per call site and argument index, how Figure 3
	// classified the argument, so the flow-sensitive method can
	// re-evaluate the flow-insensitive contribution of one specific
	// (back) edge.
	edgeClass map[*ir.CallInstr][]fiArgClass
}

type fiArgKind int

const (
	fiArgBottom   fiArgKind = iota
	fiArgLiteral            // immediate constant
	fiArgGlobal             // program-wide constant global
	fiArgPassThru           // unmodified formal of the caller
)

type fiArgClass struct {
	kind fiArgKind
	lit  val.Value // fiArgLiteral
	g    *sem.Var  // fiArgGlobal
	fp0  *sem.Var  // fiArgPassThru
}

// runFI executes the Figure 3 algorithm.
func runFI(ctx *Context, opts Options) *fiSolution {
	s := &fiSolution{
		opts:         opts,
		formals:      make(map[*sem.Var]lattice.Elem),
		globalConsts: programGlobalConstants(ctx, opts),
		fpBind:       make(map[*sem.Var][]*sem.Var),
		edgeClass:    make(map[*ir.CallInstr][]fiArgClass),
	}
	cg := ctx.CG

	// Formals: optimistic ⊤ initialisation.
	for _, p := range cg.Reachable {
		for _, f := range p.Params {
			s.formals[f] = lattice.TopElem()
		}
	}

	var worklist []*sem.Var
	meet := func(fp *sem.Var, v lattice.Elem) {
		orig := s.formals[fp]
		nw := lattice.Meet(orig, v)
		if nw.Eq(orig) {
			return
		}
		s.formals[fp] = nw
		if !orig.IsBottom() && nw.IsBottom() {
			worklist = append(worklist, s.fpBind[fp]...)
		}
	}

	// One forward topological traversal of the PCG.
	for i, p := range cg.Reachable {
		for _, e := range cg.Out[i] {
			call := e.Site
			classes := make([]fiArgClass, len(call.Args))
			for i := range call.Args {
				if i >= len(e.Callee.Params) {
					break
				}
				fp1 := e.Callee.Params[i]
				cls := s.classifyArg(ctx, p, call, i)
				classes[i] = cls
				switch cls.kind {
				case fiArgLiteral:
					meet(fp1, opts.filter(lattice.Const(cls.lit)))
				case fiArgGlobal:
					meet(fp1, lattice.Const(s.globalConsts[cls.g]))
				case fiArgPassThru:
					s.fpBind[cls.fp0] = append(s.fpBind[cls.fp0], fp1)
					meet(fp1, s.formals[cls.fp0])
				default:
					meet(fp1, lattice.BottomElem())
				}
			}
			s.edgeClass[call] = classes
		}
	}

	// Drain the worklist: pass-through formals whose source was
	// lowered to ⊥ after their binding was recorded.
	for len(worklist) > 0 {
		fp := worklist[len(worklist)-1]
		worklist = worklist[:len(worklist)-1]
		if s.formals[fp].IsBottom() {
			continue
		}
		s.formals[fp] = lattice.BottomElem()
		worklist = append(worklist, s.fpBind[fp]...)
	}
	return s
}

// classifyArg applies Figure 3's argument cases at one call site.
func (s *fiSolution) classifyArg(ctx *Context, caller *sem.Proc, call *ir.CallInstr, i int) fiArgClass {
	syntax := call.ArgSyntax[i]
	if v, ok := literalValue(syntax); ok {
		if !s.opts.PropagateFloats && v.IsFloat() {
			return fiArgClass{kind: fiArgBottom}
		}
		return fiArgClass{kind: fiArgLiteral, lit: v}
	}
	if v := argIdentVar(caller, syntax); v != nil {
		if v.IsGlobal() {
			if _, ok := s.globalConsts[v]; ok {
				return fiArgClass{kind: fiArgGlobal, g: v}
			}
			return fiArgClass{kind: fiArgBottom}
		}
		if v.Kind == sem.KindFormal && v.Owner == caller &&
			s.formals[v].IsConst() && !ctx.MR.Mod(caller).Has(v) {
			return fiArgClass{kind: fiArgPassThru, fp0: v}
		}
	}
	return fiArgClass{kind: fiArgBottom}
}

// EdgeArg re-evaluates the flow-insensitive contribution of one call
// edge's i-th argument after the fixpoint — the paper's "solution
// obtained by the flow-insensitive method for this edge", used by the
// flow-sensitive method on back edges.
func (s *fiSolution) EdgeArg(call *ir.CallInstr, i int) lattice.Elem {
	classes, ok := s.edgeClass[call]
	if !ok || i >= len(classes) {
		return lattice.BottomElem()
	}
	switch cls := classes[i]; cls.kind {
	case fiArgLiteral:
		return s.opts.filter(lattice.Const(cls.lit))
	case fiArgGlobal:
		return lattice.Const(s.globalConsts[cls.g])
	case fiArgPassThru:
		return s.formals[cls.fp0]
	default:
		return lattice.BottomElem()
	}
}

// GlobalElem returns the flow-insensitive value of a global (constant
// program-wide or ⊥).
func (s *fiSolution) GlobalElem(g *sem.Var) lattice.Elem {
	if v, ok := s.globalConsts[g]; ok {
		return lattice.Const(v)
	}
	return lattice.BottomElem()
}

// toResult converts the solution into the common Result shape: the
// entry maps, built in parallel. ArgVal and CallGlobals read the
// call-site candidates from the solution itself.
func (s *fiSolution) toResult(ctx *Context, opts Options) *Result {
	res := newResult(ctx, opts)
	res.ProgramGlobalConstants = s.globalConsts
	res.FI = s
	envs := make([]lattice.Env[*sem.Var], len(ctx.CG.Reachable))
	driver.Parallel(len(envs), driver.Workers(opts.Workers), func(i int) { envs[i] = s.entryEnvFor(ctx.CG.Reachable[i]) })
	for i, p := range ctx.CG.Reachable {
		res.Entry[p] = envs[i]
	}
	return res
}
