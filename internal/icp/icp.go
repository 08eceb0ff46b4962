// Package icp implements the paper's interprocedural constant
// propagation algorithms:
//
//   - the flow-insensitive method (its Figure 3): a single forward
//     topological traversal of the program call graph propagating
//     immediate call-site constants and pass-through formals, with an
//     fp-bind worklist to handle cycles, plus block-data global
//     constants that are never modified;
//
//   - the flow-sensitive method (its Figure 4): one forward topological
//     traversal that interleaves a Wegman–Zadeck sparse conditional
//     constant (SCC) analysis of each procedure with interprocedural
//     propagation; every procedure receives one flow-sensitive analysis,
//     and call-graph back edges fall back to the flow-insensitive
//     solution, so recursion is supported without iteration;
//
//   - the return-constant extension (its §3.2): one additional reverse
//     topological traversal performing a second flow-sensitive analysis
//     per procedure to compute returned constants (function results and
//     exit values of by-reference formals and globals), which invoking
//     call sites then consume;
//
//   - flow-sensitive procedure USE computation (upward-exposed uses) in
//     one reverse topological traversal, with REF on back edges.
package icp

import (
	"context"
	"fmt"
	"sync"
	"time"

	"fsicp/internal/alias"
	"fsicp/internal/ast"
	"fsicp/internal/callgraph"
	"fsicp/internal/driver"
	"fsicp/internal/incr"
	"fsicp/internal/ir"
	"fsicp/internal/lattice"
	"fsicp/internal/modref"
	"fsicp/internal/resilience"
	"fsicp/internal/scc"
	"fsicp/internal/sem"
	"fsicp/internal/ssa"
	"fsicp/internal/val"
)

// Method selects an interprocedural constant propagation algorithm.
type Method int

const (
	// FlowInsensitive is the paper's Figure 3 algorithm: literal and
	// pass-through propagation over the call graph plus unmodified
	// block-data globals.
	FlowInsensitive Method = iota
	// FlowSensitive is the paper's Figure 4 algorithm: one interleaved
	// Wegman–Zadeck analysis per procedure in a forward topological
	// traversal, with the flow-insensitive solution on back edges.
	// Analyze runs it for any value outside the three methods.
	FlowSensitive
	// FlowSensitiveIterative is the fully iterative comparison point
	// the paper's §3.2 equates with FlowSensitive on acyclic call
	// graphs: procedures are re-analysed until a global fixpoint, so a
	// procedure may receive many flow-sensitive analyses.
	FlowSensitiveIterative
)

// String names the method; an out-of-range value renders as
// "unknown(N)".
func (m Method) String() string {
	switch m {
	case FlowInsensitive:
		return "flow-insensitive"
	case FlowSensitive:
		return "flow-sensitive"
	case FlowSensitiveIterative:
		return "flow-sensitive-iterative"
	}
	return fmt.Sprintf("unknown(%d)", int(m))
}

// Options configures an analysis.
type Options struct {
	Method Method

	// Workers bounds the number of procedures the flow-sensitive
	// methods analyse concurrently (0 means GOMAXPROCS); driver.Schedule
	// starts a procedure once its forward-edge predecessors have
	// finished. The solution is byte-identical for every worker count.
	Workers int

	// Trace, when non-nil, receives one driver.PassStats record per
	// analysis pass (FI, FS, returns, ...). A nil trace records
	// nothing.
	Trace *driver.Trace

	// PropagateFloats enables interprocedural propagation of
	// floating-point constants (the paper reports results both ways;
	// Tables 3–4 exclude them). Intraprocedural folding is unaffected.
	PropagateFloats bool

	// ReturnConstants enables the flow-sensitive return-constant
	// extension (one extra reverse traversal). Ignored by the
	// flow-insensitive method.
	ReturnConstants bool

	// ReturnsRefresh (requires ReturnConstants) adds one more forward
	// traversal that rebuilds entry environments using the computed
	// return and exit summaries, so constants that flow out of one
	// callee and into another procedure's entry become visible. This
	// goes beyond the paper's two-traversal design; the summaries were
	// computed under older (more conservative) environments, so the
	// refresh is sound.
	ReturnsRefresh bool

	// Ctx, when non-nil, bounds the analysis: after it ends, the
	// traversals start no further procedure and every unfinished one
	// degrades to the flow-insensitive solution (recorded in
	// Result.Degradations). Nil means no bound.
	Ctx context.Context

	// Fuel bounds the propagation steps (φ/instruction/terminator
	// evaluations) each per-procedure flow-sensitive analysis may take;
	// a procedure exhausting it degrades to the flow-insensitive
	// solution. 0 means unlimited. The bound is deterministic: the same
	// program and fuel degrade the same procedures at every worker
	// count.
	Fuel int

	// Faults, when non-nil, is the fault-injection hook
	// (faultinject.(*Injector).Hook), called as hook(pass, proc) at the
	// start of every protected worker body. Injected panics and aborts
	// degrade exactly like real ones.
	Faults func(pass, proc string)

	// FaultKey identifies the active fault-injection spec in cache
	// keys, so a faulted run never shares incremental state with clean
	// runs (or runs under a different seed). Empty when Faults is nil.
	FaultKey string

	// DropIntra discards the per-procedure intraprocedural fixpoints as
	// soon as each is summarized: Result.Intra stays empty and the scc
	// result tables are recycled through a pool instead of being kept
	// live for every reachable procedure. The facade sets it — nothing
	// downstream of the public API reads Intra (the transform pipeline
	// re-runs scc itself from Result.Entry) — which keeps the analysis
	// phase's live heap proportional to the worker count rather than
	// the program size. The summaries, reports, and all public results
	// are byte-identical either way.
	DropIntra bool

	// NoDeltaSkip makes the iterative rounds and the returns refresh
	// re-evaluate every procedure instead of skipping those whose
	// inputs did not change: the skip-free reference path the
	// byte-identity tests compare the skipping one against. Results
	// are identical either way; only the work differs.
	NoDeltaSkip bool

	// Incr, when non-nil, attaches the incremental engine: the
	// flow-sensitive methods reuse per-procedure results cached from
	// previous runs over edited versions of the same program. Results
	// are byte-identical to a cold run; only the work performed (and
	// Result.ProcsReused/CacheHits/CacheMisses plus the Intra map,
	// which stays sparse for procedures that never re-ran) differs.
	// The flow-insensitive method ignores it (it is a single cheap
	// whole-program fixpoint).
	Incr *incr.Engine
}

// context returns the run's context, never nil.
func (o Options) context() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// filter demotes a float constant to ⊥ when float propagation is off.
func (o Options) filter(e lattice.Elem) lattice.Elem {
	if !o.PropagateFloats && e.IsConst() && e.Val().IsFloat() {
		return lattice.BottomElem()
	}
	return e
}

// Context bundles the interprocedural inputs every method needs. It is
// built once per program; building it fills ir.CallInstr.MayDef and
// inserts alias clobbers, matching the paper's compilation model (alias
// analysis, then MOD/REF, then ICP).
type Context struct {
	Prog *ir.Program
	CG   *callgraph.Graph
	AL   *alias.Info
	MR   *modref.Info

	// SSACache holds the SSA form of the reachable procedures built so
	// far, indexed by CG.Reachable position; a nil slot has not been
	// built. SSA fills it on first use, so repeated and concurrent
	// analyses build each procedure's SSA once. The SSA overlay is
	// read-only during propagation, so one cache may back concurrent
	// analyses. Any pass that mutates the IR must call InvalidateSSA.
	SSACache []*ssa.SSA

	// ssaMu guards the allocation of SSACache and ssaOnce; ssaOnce[i]
	// fills slot i exactly once.
	ssaMu   sync.Mutex
	ssaOnce []sync.Once
}

// Prepare runs the pre-ICP interprocedural phases on prog.
func Prepare(prog *ir.Program) *Context {
	cg := callgraph.Build(prog)
	al := alias.Compute(prog, cg)
	mr := modref.Compute(prog, cg, al)
	al.InsertClobbers(prog, cg)
	return &Context{Prog: prog, CG: cg, AL: al, MR: mr}
}

// SSA returns the SSA form of the procedure at CG.Reachable position i,
// building it into SSACache[i] on first use. Concurrent callers share
// one build per slot; a slot filled before the first call is returned
// as is.
func (c *Context) SSA(i int) *ssa.SSA {
	c.ssaMu.Lock()
	if c.ssaOnce == nil {
		c.ssaOnce = make([]sync.Once, len(c.CG.Reachable))
		if c.SSACache == nil {
			c.SSACache = make([]*ssa.SSA, len(c.CG.Reachable))
		}
	}
	once, slots := &c.ssaOnce[i], c.SSACache
	c.ssaMu.Unlock()
	once.Do(func() {
		if slots[i] == nil {
			slots[i] = ssa.Build(c.Prog.FuncOf[c.CG.Reachable[i]])
		}
	})
	return slots[i]
}

// InvalidateSSA drops every built SSA form. Transformation passes that
// rewrite the IR in place must call it before the next analysis.
func (c *Context) InvalidateSSA() {
	c.ssaMu.Lock()
	c.SSACache, c.ssaOnce = nil, nil
	c.ssaMu.Unlock()
}

// Result is the outcome of one ICP run. Its per-procedure results are
// indexed by position in CG.Reachable; the call-site results are read
// through ArgVal and CallGlobals, keyed by callgraph.Edge.
type Result struct {
	Ctx  *Context
	Opts Options

	// CG is the call graph whose positions index this result: Ctx.CG
	// as the analysis ran. A pass that rewrites the IR rebuilds Ctx.CG
	// and leaves this one; the call-site accessors take an edge of
	// either graph (see Edge).
	CG *callgraph.Graph

	// Entry[p] holds the lattice value of each formal of p and each
	// global at entry to p, as established interprocedurally, for every
	// reachable p. Absent entries are ⊥. The flow-sensitive methods
	// build a map in the worker that produced p's entry frame
	// (incr.ProcSummary.Entry); a refresh that keeps a summary keeps its
	// map.
	Entry map[*sem.Proc]lattice.Env[*sem.Var]

	// ProgramGlobalConstants are the block-data-initialised globals
	// never modified in the program (flow-insensitive global solution).
	ProgramGlobalConstants map[*sem.Var]val.Value

	// Proc[i] is the portable result summary of the procedure at
	// position i (flow-sensitive methods only): liveness, entry frame,
	// and per-call-site values. Until a returns traversal runs, the
	// call-site accessors read this slice; after it, a procedure it
	// re-analysed holds its returns-stage summary, whose site
	// reachability CallSites reports. Under the incremental engine a
	// summary may come from a previous run's cache; it is
	// byte-identical to a freshly computed one.
	Proc []*incr.ProcSummary

	// sites holds the summaries of the last forward install (FS, the
	// iterative fixpoint, or the refresh when it ran): what ArgVal,
	// CallGlobals and Dead read.
	sites []*incr.ProcSummary

	// Intra[p] is the final intraprocedural SCC fixpoint of p
	// (flow-sensitive methods only). Under the incremental engine this
	// map is sparse: procedures whose summaries were reused have no
	// fresh fixpoint. Consumers needing per-run data should read Proc.
	Intra map[*sem.Proc]*scc.Result

	// Returns[i] is the constant the function at position i returns,
	// Exit[i] its exit frame (ir.Func.FrameSlot layout: each slot's
	// exit value where constant, ⊥ elsewhere), and CanReturn[i] whether
	// it can return at all (return-constant extension only; nil
	// otherwise). ExitValue reads the exit value of any variable.
	Returns   []lattice.Elem
	Exit      [][]lattice.Elem
	CanReturn []bool
	// exitEntry[i] is the entry map the returns traversal ran under,
	// for ExitValue's globals outside the frame.
	exitEntry []lattice.Env[*sem.Var]

	// FI is the flow-insensitive solution: the method's own, which
	// ArgVal and CallGlobals read, or the flow-sensitive method's
	// back-edge fallback on a cyclic PCG.
	FI *fiSolution

	// BackEdgesUsed counts call edges that consulted the
	// flow-insensitive fallback.
	BackEdgesUsed int

	// AnalysisTime is the wall-clock duration of the ICP phase proper
	// (excluding Prepare).
	AnalysisTime time.Duration

	// Iterations and SCCRuns are filled by the iterative method: how
	// many rounds the global fixpoint took and how many intraprocedural
	// analyses were needed in total (the one-pass method runs exactly
	// one per procedure — the paper's efficiency argument). SCCRuns
	// counts logical analyses: an incremental value-cache hit counts,
	// so the number matches a cold run.
	Iterations int
	SCCRuns    int

	// Incremental-engine work accounting (zero on cold runs):
	// ProcsReused counts procedures whose previous summary stood
	// (incr.ProcSummary.Stands: same key, same entry environment);
	// CacheHits/CacheMisses count value-cache lookups for the others.
	ProcsReused int
	CacheHits   int
	CacheMisses int

	// Store is this run's summary-store counter delta (memory layer
	// hits/misses; disk-layer traffic when the engine has a persistent
	// layer). Zero-valued without an engine.
	Store incr.StoreStats

	// Degradations lists, in deterministic order, every procedure (or
	// whole pass, Proc == "") that fell back to the flow-insensitive
	// solution instead of completing flow-sensitively — because of a
	// panic (isolated), fuel exhaustion, cancellation, or a deadline.
	// Empty on a fully precise run. The degraded values are sound; they
	// are simply the paper's FI solution for those procedures.
	Degradations []resilience.Degradation
}

// Degraded reports whether procedure name fell back to the
// flow-insensitive solution during any pass of this run.
func (r *Result) Degraded(name string) bool {
	for _, d := range r.Degradations {
		if d.Proc == name {
			return true
		}
	}
	return false
}

// Analyze runs the selected method over a prepared context.
func Analyze(ctx *Context, opts Options) *Result {
	start := time.Now()
	var res *Result
	switch opts.Method {
	case FlowInsensitive:
		g := newGuard(opts)
		opts.Trace.Time("FI", func(st *driver.PassStats) {
			// ensureFI is protected: if the FI computation itself
			// faults, the result degrades to the empty (all-⊥) solution.
			fi := g.ensureFI(ctx, opts)
			res = fi.toResult(ctx, opts)
			st.Procs = len(ctx.CG.Reachable)
			st.Degraded = g.passCount("FI")
		})
		res.Degradations = g.list()
	case FlowSensitiveIterative:
		res = runFSIterative(ctx, opts)
	default:
		res = runFS(ctx, opts)
	}
	res.AnalysisTime = time.Since(start)
	return res
}

// EntryConstant returns the constant value of v (a formal of p or a
// global) at entry to p, if the method established one.
func (r *Result) EntryConstant(p *sem.Proc, v *sem.Var) (val.Value, bool) {
	e := r.Entry[p].Get(v)
	if e.IsConst() {
		return e.Val(), true
	}
	return val.Value{}, false
}

// Edge returns the edge of CG for e's call site, found by its
// instruction: e may come from a call graph a pass rebuilt after the
// analysis, with other positions and site numbers. False when the
// analysis never saw the site.
func (r *Result) Edge(e callgraph.Edge) (callgraph.Edge, bool) {
	if i := r.CG.PosOf(e.Caller); i >= 0 {
		out := r.CG.Out[i]
		if k := int(e.SiteIdx); k < len(out) && out[k].Site == e.Site {
			return out[k], true
		}
		for _, a := range out {
			if a.Site == e.Site {
				return a, true
			}
		}
	}
	return callgraph.Edge{}, false
}

// ArgVal is the method's value for the i-th actual at e's call site
// (the call-site constant-candidate metric): the Figure 3
// classification under the flow-insensitive method, and otherwise the
// SCC value at the site, ⊤ when the site is unreachable. e may come
// from any call graph of the program (see Edge); a site the analysis
// never saw reads ⊥.
func (r *Result) ArgVal(e callgraph.Edge, i int) lattice.Elem {
	e, ok := r.Edge(e)
	switch {
	case !ok:
		return lattice.BottomElem()
	case r.sites == nil:
		return r.FI.EdgeArg(e.Site, i)
	}
	sv := r.sites[e.CallerPos].Sites[e.SiteIdx]
	if !sv.Reachable {
		return lattice.TopElem()
	}
	return r.Opts.filter(sv.Args[i])
}

// CallGlobals calls f with each global that is constant at e's call
// site and referenced by the callee (directly or transitively), and its
// value, in declaration order — the paper's sparse per-call-site global
// candidate list. Those in the caller's use clause are the paper's VIS
// subset. An unreachable site, a dead caller and a site the analysis
// never saw have none.
func (r *Result) CallGlobals(e callgraph.Edge, f func(g *sem.Var, v val.Value)) {
	e, ok := r.Edge(e)
	if !ok {
		return
	}
	globals := r.Ctx.Prog.Sem.Globals
	if r.sites == nil {
		for _, gi := range r.Ctx.MR.RefGlobals(e.Callee) {
			if v, ok := r.FI.globalConsts[globals[gi]]; ok {
				f(globals[gi], v)
			}
		}
		return
	}
	sum := r.sites[e.CallerPos]
	if sv := sum.Sites[e.SiteIdx]; sv.Reachable && !sum.Dead {
		for j, gi := range sv.GlobIdx {
			if gv := r.Opts.filter(sv.GlobVals[j]); gv.IsConst() {
				f(globals[gi], gv.Val())
			}
		}
	}
}

// Dead reports that the procedure at position i, although statically
// reachable in the PCG, has no executable incoming call site under the
// flow-sensitive solution.
func (r *Result) Dead(i int) bool { return r.sites != nil && r.sites[i].Dead }

// ExitValue is the exit value of v in the procedure at position i
// (return-constant extension): its exit-frame slot for a formal or a
// global of the segment, and, when the procedure can return, the entry
// constant of any other global (only main's and degraded procedures'
// entries bind any), which it and its callees never touch.
func (r *Result) ExitValue(i int, v *sem.Var) lattice.Elem {
	if k := r.Ctx.Prog.Funcs[r.CG.Reachable[i].Index].FrameSlot(v); k >= 0 {
		return r.Exit[i][k]
	}
	if e := r.exitEntry[i].Get(v); r.CanReturn[i] && v.IsGlobal() && e.IsConst() {
		return e
	}
	return lattice.BottomElem()
}

// ConstantFormals returns p's formals that hold interprocedural
// constants at entry.
func (r *Result) ConstantFormals(p *sem.Proc) []*sem.Var {
	var out []*sem.Var
	for _, f := range p.Params {
		if _, ok := r.EntryConstant(p, f); ok {
			out = append(out, f)
		}
	}
	return out
}

// literalValue recognises the paper's "immediate constant" arguments: a
// literal, possibly parenthesised or negated.
func literalValue(e ast.Expr) (val.Value, bool) {
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

// argIdentVar returns the variable a bare-identifier argument of one of
// caller's calls names (nil for any other argument shape). Parentheses
// make an argument an expression (by-value), so they are *not*
// stripped here.
func argIdentVar(caller *sem.Proc, e ast.Expr) *sem.Var {
	if id, ok := e.(*ast.Ident); ok {
		return caller.Refs[id]
	}
	return nil
}
