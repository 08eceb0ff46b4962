package icp

import (
	"fmt"

	"fsicp/internal/callgraph"
	"fsicp/internal/driver"
	"fsicp/internal/incr"
	"fsicp/internal/ir"
	"fsicp/internal/lattice"
	"fsicp/internal/scc"
	"fsicp/internal/sem"
	"fsicp/internal/val"
)

// This file holds the scheduling substrate shared by the
// flow-sensitive methods. The PCG's forward edges form a DAG (a forward
// edge strictly increases the topological position), recorded once in
// callgraph.Graph.Forward and, turned round, in Reverse. A forward
// traversal reads at each procedure only what its forward-edge callers
// wrote, so driver.Schedule starts a procedure as soon as the last of
// them has finished; the returns traversal, running in reverse, waits
// for forward-edge callees instead. Back edges never constrain the schedule — they read
// the precomputed flow-insensitive fallback (one-pass method) or the
// previous round's results (iterative method), which is exactly what
// the serial traversals read, so the parallel schedule is
// semantics-preserving and deterministic for any worker count.

// callerSummary maps an incoming call edge to the summary it reads.
// The slice-of-slots representation (indexed by PCG position, each
// slot written only by its owning procedure's worker) is what makes
// the schedule race-free without locks. A nil summary means the
// caller has not been analysed yet (iterative optimism).
type callerSummary func(e callgraph.Edge) *incr.ProcSummary

// entryEnv builds the entry frame (ir.Func.FrameSlot) of p, the
// procedure at position i, by meeting, from ⊤, the contributions of
// every incoming call edge to p's formals and REF(p) globals. A
// forward edge reads the summary caller maps it to. A back edge reads
// the flow-insensitive solution fi when fi is set (the one-pass method
// and the refresh; fi is nil only on an acyclic PCG), and caller
// otherwise (the iterative method's round-start snapshot). Dead callers
// and unreachable call sites contribute ⊤. An edge's SiteIdx is its
// index in the caller's summary Sites. main's frame holds the
// block-data constants instead. Returns the frame, residual ⊤s lowered
// to ⊥ (all ⊥ when no incoming site is executable), whether any
// incoming site is executable, and how many back edges read fi. Meet is
// commutative and associative, so the result is independent of edge
// order.
func (r *run) entryEnv(i int, caller callerSummary, fi *fiSolution) (frame []lattice.Elem, live bool, backEdges int) {
	ctx, opts, cg := r.ctx, r.opts, r.ctx.CG
	p := cg.Reachable[i]
	fn := ctx.Prog.Funcs[p.Index]
	if i == 0 {
		return scc.Frame(fn, r.mainEntry()), true, 0
	}
	// REF(p) and each site's stored globals lie in p's segment, and all
	// list globals in declaration order, so one merge walk per edge
	// finds each global's frame slot without a search.
	np, segment := len(p.Params), fn.Globals()
	frame = make([]lattice.Elem, fn.FrameLen())
	meet := func(k int, e lattice.Elem) { frame[k] = lattice.Meet(frame[k], e) }
	nExec := 0
	for _, e := range cg.In[i] {
		if fi != nil && cg.IsBackEdge(e) {
			backEdges++
			nExec++
			for i := range p.Params {
				meet(i, fi.EdgeArg(e.Site, i))
			}
			o := 0
			for _, gi := range ctx.MR.RefGlobals(p) {
				for segment[o].Index != int(gi) {
					o++
				}
				meet(np+o, fi.GlobalElem(segment[o]))
			}
			continue
		}
		sum := caller(e)
		if sum == nil || sum.Dead {
			continue
		}
		sv := sum.Sites[e.SiteIdx]
		if !sv.Reachable {
			continue
		}
		nExec++
		for i := range p.Params {
			if i >= len(e.Site.Args) {
				break
			}
			meet(i, opts.filter(sv.Args[i]))
		}
		// Sparse global candidates: the site stores values for exactly
		// Ref(p) — the globals the callee (transitively) references —
		// so the stored pairs are met directly.
		o := 0
		for j, gi := range sv.GlobIdx {
			for segment[o].Index != int(gi) {
				o++
			}
			meet(np+o, opts.filter(sv.GlobVals[j]))
		}
	}
	live = nExec > 0
	if live {
		r.seedByRef(fn, frame)
	}
	// With no executable call site, the procedure is statically
	// reachable but dynamically dead under this solution: all ⊥.
	demoteTop(frame)
	return frame, live, backEdges
}

// seedByRef gives each global that fn's procedure passes by reference
// but does not reference its program-wide constant, if it has one: the
// SCC run reads the global at the call, but no caller binds it, and
// one initialised and modified nowhere holds its block-data value
// everywhere. Keyed on by-reference actuals, not on every non-REF
// slot, the rule binds nothing a denser global domain adds.
func (r *run) seedByRef(fn *ir.Func, frame []lattice.Elem) {
	ref := r.ctx.MR.Ref(fn.Proc)
	for _, call := range fn.Calls {
		for _, a := range call.ByRef {
			if v, ok := r.consts[a]; ok && !ref.Has(a) {
				frame[fn.FrameSlot(a)] = r.opts.filter(lattice.Const(v))
			}
		}
	}
}

// demoteTop lowers every residual ⊤ of a frame to ⊥: a ⊤ would claim
// "never receives a value", so the demotion keeps the frame sound.
func demoteTop(frame []lattice.Elem) {
	for i, e := range frame {
		if e.IsTop() {
			frame[i] = lattice.BottomElem()
		}
	}
}

// run holds the inputs one flow-sensitive analysis shares across its
// traversals: the context and options, the resilience guard, the
// program-wide global constants (Result.ProgramGlobalConstants), and
// the incremental state (nil without an engine).
type run struct {
	ctx    *Context
	opts   Options
	g      *guard
	consts map[*sem.Var]val.Value
	ist    *incrState
	// sums and envs hold the installed summaries and their entry maps
	// by position, for the later traversals to read.
	sums []*incr.ProcSummary
	envs []lattice.Env[*sem.Var]
}

// newRun builds a run's shared inputs once its FI pass is done,
// recording the incr-plan pass when an engine is attached.
func newRun(ctx *Context, opts Options, g *guard, consts map[*sem.Var]val.Value) *run {
	r := &run{ctx: ctx, opts: opts, g: g, consts: consts}
	if opts.Incr != nil {
		opts.Trace.Time("incr-plan", func(st *driver.PassStats) {
			var keyed int
			r.ist, keyed = beginIncr(ctx, opts)
			st.Procs = len(ctx.CG.Reachable)
			st.Notes = fmt.Sprintf("keyed=%d kept=%d", keyed, st.Procs-keyed)
		})
	}
	return r
}

// step is one flow-sensitive analysis of the procedure at position i
// under entry frame env, for the one-pass method (namespace "fs"), the
// iterative rounds ("iter") and the returns refresh (no namespace).
// hooks carries the call hooks (CallResult, CallExit) and nothing
// else.
//
// Under a namespace and an incremental engine, the value cache answers
// a (key, frame) pair analysed in any earlier run. Otherwise SCC runs,
// and its fixpoint is summarized, released under DropIntra, and
// cached. The fixpoint is returned for Result.Intra: nil when the
// cache answered or the fixpoint was released.
func (r *run) step(ns string, i int, env []lattice.Elem, live bool, nBack int, hooks scc.Options) (*incr.ProcSummary, *scc.Result) {
	p := r.ctx.CG.Reachable[i]
	var key string // stays empty when nothing is cached
	if ns != "" && r.ist != nil {
		key = incr.EnvKey(env, live)
		if cached, ok := r.ist.plan.Lookup(ns, p.Name, r.ist.fps[i], key); ok {
			// Liveness and back-edge counts are per-run facts; only
			// the (deterministic) site values are shared.
			return &incr.ProcSummary{Dead: !live, BackEdges: nBack, Entry: env, Sites: cached.Sites}, nil
		}
	}
	hooks.Entry, hooks.Budget, hooks.Transient = env, r.g.budget(), r.opts.DropIntra
	fix := scc.Run(r.ctx.SSA(i), hooks)
	sum := summarize(r.ctx, p, fix, !live, nBack, env)
	if r.opts.DropIntra {
		fix.Release()
		fix = nil
	}
	if key != "" {
		r.ist.plan.Store(ns, p.Name, r.ist.fps[i], key, sum)
	}
	return sum, fix
}

// install makes a forward traversal's per-position summaries, and the
// entry maps its workers built from them, the run's and the Result's:
// Proc and the call-site accessors read the summaries, Entry holds the
// maps. A nil fixpoint leaves Intra as it was.
func (r *run) install(res *Result, sums []*incr.ProcSummary, envs []lattice.Env[*sem.Var], intra []*scc.Result) {
	r.sums, r.envs = sums, envs
	res.Proc, res.sites = sums, sums
	for i, p := range res.CG.Reachable {
		res.Entry[p] = envs[i]
		if intra[i] != nil {
			res.Intra[p] = intra[i]
		}
	}
}

// entryMap is p's reported entry environment: the constants of its
// entry frame, except where the entry binds globals outside the
// segment too — main's holds every block-data constant, and a degraded
// procedure's is the flow-insensitive solution's.
func (r *run) entryMap(p *sem.Proc, sum *incr.ProcSummary) lattice.Env[*sem.Var] {
	switch {
	case sum.Degraded:
		return r.g.ensureFI(r.ctx, r.opts).entryEnvFor(p)
	case p == r.ctx.CG.Reachable[0]:
		return r.mainEntry()
	}
	return frameEnv(r.ctx.Prog.Funcs[p.Index], sum.Entry)
}

// mainEntry is main's entry environment: the block-data constants.
func (r *run) mainEntry() lattice.Env[*sem.Var] {
	env := make(lattice.Env[*sem.Var], len(r.ctx.Prog.Sem.GlobalInit))
	for g, v := range r.ctx.Prog.Sem.GlobalInit {
		env[g] = r.opts.filter(lattice.Const(v))
	}
	return env
}

// frameEnv converts a frame of fn to the map form Result.Entry
// reports: its constant slots, keyed by variable.
func frameEnv(fn *ir.Func, frame []lattice.Elem) lattice.Env[*sem.Var] {
	n := 0
	for _, e := range frame {
		if e.IsConst() {
			n++
		}
	}
	env := make(lattice.Env[*sem.Var], n)
	for k, e := range frame {
		if e.IsConst() {
			env[fn.FrameVar(k)] = e
		}
	}
	return env
}
