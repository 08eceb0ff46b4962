package icp

import (
	"fsicp/internal/callgraph"
	"fsicp/internal/driver"
	"fsicp/internal/incr"
	"fsicp/internal/lattice"
	"fsicp/internal/scc"
	"fsicp/internal/sem"
)

// This file holds the wavefront-scheduling substrate shared by the
// flow-sensitive methods. The PCG's forward edges form a DAG (a forward
// edge strictly increases the topological position), so the reachable
// procedures condense into topological levels; procedures of one level
// have no forward edges between them and can be analysed concurrently
// once every earlier level has completed. Back edges never constrain
// the schedule — they read the precomputed flow-insensitive fallback
// (one-pass method) or the previous round's results (iterative method),
// which is exactly what the serial traversals read, so the parallel
// schedule is semantics-preserving and deterministic for any worker
// count.

// forwardLevels condenses the PCG forward-edge DAG into topological
// levels for the forward traversals: a procedure's dependencies are its
// forward-edge callers.
func forwardLevels(cg *callgraph.Graph) [][]int {
	return driver.Levels(len(cg.Reachable), func(i int) []int {
		var deps []int
		for _, e := range cg.In[cg.Reachable[i]] {
			if !cg.IsBackEdge(e) {
				deps = append(deps, cg.Pos[e.Caller])
			}
		}
		return deps
	})
}

// reverseLevels condenses the same DAG for the reverse traversals
// (return constants): a procedure's dependencies are its forward-edge
// callees.
func reverseLevels(cg *callgraph.Graph) [][]int {
	return driver.Levels(len(cg.Reachable), func(i int) []int {
		var deps []int
		for _, e := range cg.Out[cg.Reachable[i]] {
			if !cg.IsBackEdge(e) {
				deps = append(deps, cg.Pos[e.Callee])
			}
		}
		return deps
	})
}

// callerSummary maps an incoming call edge to the summary it reads.
// The slice-of-slots representation (indexed by PCG position, each
// slot written only by its owning procedure's worker) is what makes
// the wavefront race-free without locks. A nil summary means the
// caller has not been analysed yet (iterative optimism).
type callerSummary func(e callgraph.Edge) *incr.ProcSummary

// entryEnv builds p's entry environment by meeting the contributions of
// every incoming call edge. A forward edge reads the summary caller
// maps it to. A back edge reads the flow-insensitive solution fi when
// fi is set (the one-pass method and the refresh; fi is nil only on an
// acyclic PCG, which has no back edges), and caller otherwise (the
// iterative method, whose callback answers a back edge from the
// round-start snapshot). Dead callers and unreachable call sites
// contribute ⊤. A call instruction's SiteIdx is its index in the
// caller's summary Sites. The environment binds only p's formals and
// REF*(p) globals, which lie in p's global segment, and is presized to
// formals plus segment. Returns the environment (empty when no
// incoming site is executable), whether any incoming site is
// executable, and how many back edges read fi. Meet is commutative and
// associative, so the result is independent of edge order.
func entryEnv(ctx *Context, opts Options, p *sem.Proc, caller callerSummary, fi *fiSolution) (env lattice.Env[*sem.Var], live bool, backEdges int) {
	cg, mr := ctx.CG, ctx.MR
	globals := ctx.Prog.Sem.Globals
	if p == cg.Reachable[0] {
		// Block-data initial constants seed the entry of main.
		env = make(lattice.Env[*sem.Var])
		for g, v := range ctx.Prog.Sem.GlobalInit {
			env[g] = opts.filter(lattice.Const(v))
		}
		return env, true, 0
	}
	env = make(lattice.Env[*sem.Var], len(p.Params)+len(ctx.Prog.FuncOf[p].Globals()))
	nExec := 0
	for _, e := range cg.In[p] {
		if fi != nil && cg.IsBackEdge(e) {
			backEdges++
			nExec++
			for i, f := range p.Params {
				env.MeetInto(f, fi.EdgeArg(e.Site, i))
			}
			for _, gi := range mr.RefGlobals(p) {
				env.MeetInto(globals[gi], fi.GlobalElem(globals[gi]))
			}
			continue
		}
		sum := caller(e)
		if sum == nil || sum.Dead {
			continue
		}
		sv := sum.Sites[e.Site.SiteIdx]
		if !sv.Reachable {
			continue
		}
		nExec++
		for i, f := range p.Params {
			if i >= len(e.Site.Args) {
				break
			}
			env.MeetInto(f, opts.filter(sv.Args[i]))
		}
		// Sparse global candidates: the site stores values for exactly
		// Ref(p) — the globals the callee (transitively) references,
		// all in its segment — so the stored pairs are iterated
		// directly.
		for j, gi := range sv.GlobIdx {
			env.MeetInto(globals[gi], opts.filter(sv.GlobVals[j]))
		}
	}
	if nExec == 0 {
		// Statically reachable but no executable call site: the
		// procedure is dynamically dead under this solution.
		return make(lattice.Env[*sem.Var]), false, backEdges
	}
	demoteTop(env)
	return env, true, backEdges
}

// demoteTop lowers every residual ⊤ of an entry environment to ⊥: a ⊤
// would claim "never receives a value", so the demotion keeps the
// environment sound.
func demoteTop(env lattice.Env[*sem.Var]) {
	for v, e := range env {
		if e.IsTop() {
			env[v] = lattice.BottomElem()
		}
	}
}

// run holds the inputs one flow-sensitive analysis shares across its
// traversals: the context and options, the resilience guard, and the
// incremental state (nil without an engine).
type run struct {
	ctx  *Context
	opts Options
	g    *guard
	ist  *incrState
}

// newRun builds a run's shared inputs once its FI pass is done,
// recording the incr-plan pass when an engine is attached.
func newRun(ctx *Context, opts Options, g *guard) *run {
	r := &run{ctx: ctx, opts: opts, g: g}
	if opts.Incr != nil {
		opts.Trace.Time("incr-plan", func(st *driver.PassStats) {
			r.ist = beginIncr(ctx, opts)
			st.Procs = len(ctx.CG.Reachable)
		})
	}
	return r
}

// step is one flow-sensitive analysis of the procedure at position i
// under env, for the one-pass method (namespace "fs"), the iterative
// rounds ("iter") and the returns refresh (no namespace). hooks
// carries the call hooks (CallResult, CallExit) and nothing else.
//
// Under a namespace and an incremental engine, the value cache answers
// a (key, environment) pair analysed in any earlier run, unless the
// environment lost a name (see portableEnv). Otherwise SCC runs, and
// its fixpoint is summarized, released under DropIntra, and cached.
// The fixpoint is returned for Result.Intra: nil when the cache
// answered or the fixpoint was released.
func (r *run) step(ns string, i int, env lattice.Env[*sem.Var], live bool, nBack int, hooks scc.Options) (*incr.ProcSummary, *scc.Result) {
	p := r.ctx.CG.Reachable[i]
	pe := portableEnv(env)
	var key string // stays empty when nothing is cached
	if ns != "" && r.ist != nil && len(pe) == len(env) {
		key = incr.EnvKey(pe, live)
		if cached, ok := r.ist.plan.Lookup(ns, p.Name, r.ist.fps[i], key); ok {
			// Liveness and back-edge counts are per-run facts; only
			// the (deterministic) site values are shared.
			return &incr.ProcSummary{Dead: !live, BackEdges: nBack, Entry: pe, Sites: cached.Sites}, nil
		}
	}
	hooks.Entry, hooks.Budget, hooks.Transient = env, r.g.budget(), r.opts.DropIntra
	fix := scc.Run(r.ctx.SSA(i), hooks)
	sum := summarize(r.ctx, p, fix, !live, nBack, pe)
	if r.opts.DropIntra {
		fix.Release()
		fix = nil
	}
	if key != "" {
		r.ist.plan.Store(ns, p.Name, r.ist.fps[i], key, sum)
	}
	return sum, fix
}

// install writes a forward traversal's per-position slots into the
// Result maps, serially and in topological order, so the outcome is
// byte-identical for every worker count. A nil fixpoint leaves Intra
// as it was.
func (res *Result) install(entry []lattice.Env[*sem.Var], sums []*incr.ProcSummary, intra []*scc.Result) {
	for i, p := range res.Ctx.CG.Reachable {
		res.Entry[p] = entry[i]
		res.Proc[p] = sums[i]
		if intra[i] != nil {
			res.Intra[p] = intra[i]
		}
		if sums[i].Dead {
			res.Dead[p] = true
		}
		res.mergeSiteValues(p, sums[i])
	}
}
