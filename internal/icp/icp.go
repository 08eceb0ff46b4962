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
	// FlowInsensitive is the paper's Figure 3 algorithm.
	FlowInsensitive Method = iota
	// FlowSensitive is the paper's Figure 4 algorithm.
	FlowSensitive
	// FlowSensitiveIterative is the fully iterative comparison point
	// the paper's §3.2 equates with FlowSensitive on acyclic call
	// graphs: procedures are re-analysed until a global fixpoint, so a
	// procedure may receive many flow-sensitive analyses.
	FlowSensitiveIterative
)

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
	// methods analyse concurrently per wavefront level (0 means
	// GOMAXPROCS). The solution is byte-identical for every worker
	// count.
	Workers int

	// Trace, when non-nil, receives one driver.PassStats record per
	// analysis pass (ssa, FI, FS, returns, ...). A nil trace records
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
	// wavefront stops claiming procedures and every unfinished one
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
	// phase's live heap proportional to the wavefront width rather than
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

// DefaultOptions returns the configuration used for the paper's main
// tables: flow-sensitive, floats on, returns off.
func DefaultOptions() Options {
	return Options{Method: FlowSensitive, PropagateFloats: true}
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
	if !o.PropagateFloats && e.IsConst() && e.Val.IsFloat() {
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

	// SSACache, when non-nil, holds the eagerly prebuilt SSA form of
	// every reachable procedure, indexed by CG.Reachable position (see
	// SSAPrebuildShards). Analyses seed their per-run ssaPool from it,
	// so repeated Analyze calls skip the per-procedure SSA
	// construction. The SSA overlay is read-only during propagation, so
	// one cache may back concurrent analyses. Any pass that mutates the
	// IR must call InvalidateSSA.
	SSACache []*ssa.SSA
}

// Prepare runs the pre-ICP interprocedural phases on prog.
func Prepare(prog *ir.Program) *Context {
	cg := callgraph.Build(prog)
	al := alias.Compute(prog, cg)
	mr := modref.Compute(prog, cg, al)
	al.InsertClobbers(prog, cg)
	return &Context{Prog: prog, CG: cg, AL: al, MR: mr}
}

// SSAPrebuildShards returns the eager SSA construction as a
// parallel-for over the reachable procedures: shard i builds procedure
// i's SSA into its private SSACache slot. Run every shard (any
// concurrency) before the cache is read.
func (c *Context) SSAPrebuildShards() (int, func(i int)) {
	c.SSACache = make([]*ssa.SSA, len(c.CG.Reachable))
	return len(c.SSACache), func(i int) {
		c.SSACache[i] = ssa.Build(c.Prog.FuncOf[c.CG.Reachable[i]])
	}
}

// InvalidateSSA drops the prebuilt SSA cache. Transformation passes
// that rewrite the IR in place must call it before the next analysis.
func (c *Context) InvalidateSSA() { c.SSACache = nil }

// Result is the outcome of one ICP run.
type Result struct {
	Ctx  *Context
	Opts Options

	// Entry[p] holds the lattice value of each formal of p and each
	// global at entry to p, as established interprocedurally. Absent
	// entries are ⊥.
	Entry map[*sem.Proc]lattice.Env[*sem.Var]

	// ArgVals[call][i] is the method's value for the i-th actual at a
	// call site (the call-site constant-candidate metric). For the
	// flow-insensitive method this is the Figure 3 classification; for
	// the flow-sensitive method it is the SCC value at the site.
	ArgVals map[*ir.CallInstr][]lattice.Elem

	// GlobalCallVals[call] maps each global that is constant at the
	// call site *and* referenced by the callee (directly or
	// transitively) to its value — the paper's sparse per-call-site
	// global candidate list.
	GlobalCallVals map[*ir.CallInstr]map[*sem.Var]val.Value

	// VisibleCallGlobals[call] maps each global that is constant at the
	// call site and visible in the *calling* procedure (its use
	// clause) to its value — the paper's VIS measurement.
	VisibleCallGlobals map[*ir.CallInstr]map[*sem.Var]val.Value

	// ProgramGlobalConstants are the block-data-initialised globals
	// never modified in the program (flow-insensitive global solution).
	ProgramGlobalConstants map[*sem.Var]val.Value

	// Proc[p] is p's portable result summary (flow-sensitive methods
	// only): liveness, entry environment, and per-call-site values.
	// Under the incremental engine a summary may come from a previous
	// run's cache; it is byte-identical to a freshly computed one.
	Proc map[*sem.Proc]*incr.ProcSummary

	// Intra[p] is the final intraprocedural SCC fixpoint of p
	// (flow-sensitive methods only). Under the incremental engine this
	// map is sparse: procedures whose summaries were reused have no
	// fresh fixpoint. Consumers needing per-run data should read Proc.
	Intra map[*sem.Proc]*scc.Result

	// Dead[p] reports that p, although statically reachable in the
	// PCG, has no executable incoming call site under the
	// flow-sensitive solution.
	Dead map[*sem.Proc]bool

	// Returns[p] is the constant a function returns (return-constant
	// extension); ExitEnv[p] the exit values of formals and globals.
	Returns map[*sem.Proc]lattice.Elem
	ExitEnv map[*sem.Proc]lattice.Env[*sem.Var]

	// FI is the flow-insensitive solution computed as the back-edge
	// fallback (flow-sensitive method on cyclic PCGs only).
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
		return e.Val, true
	}
	return val.Value{}, false
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

// argIdentVar returns the variable a bare-identifier argument names
// (nil for any other argument shape). Parentheses make an argument an
// expression (by-value), so they are *not* stripped here.
func argIdentVar(info *sem.Info, e ast.Expr) *sem.Var {
	if id, ok := e.(*ast.Ident); ok {
		return info.Refs[id]
	}
	return nil
}
