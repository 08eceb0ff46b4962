package icp

import (
	"fmt"
	"slices"
	"sync/atomic"

	"fsicp/internal/callgraph"
	"fsicp/internal/driver"
	"fsicp/internal/incr"
	"fsicp/internal/ir"
	"fsicp/internal/lattice"
	"fsicp/internal/scc"
	"fsicp/internal/sem"
)

// returns implements the paper's §3.2 return-constant extension: one
// additional reverse topological traversal of the PCG performing a
// second flow-sensitive intraprocedural analysis of each procedure, to
// identify the procedure's returned constants — the function result and
// the exit values of by-reference formals and modified globals — which
// are then consumed at the invoking call sites (the caller is analysed
// after its callees in the reverse traversal).
//
// For back edges of the reverse traversal (callees not yet reprocessed,
// i.e. recursion) the fallback is ⊥ — a flow-insensitive return
// solution, precomputed trivially.
//
// The reverse traversal is scheduled as a wavefront over the
// forward-edge DAG's reverse topological levels. A callee counts as
// processed exactly when its position is strictly after the caller's —
// the same set the serial reverse traversal has completed when it
// reaches the caller — and every such callee sits in an earlier reverse
// level, behind the barrier, so the parallel schedule reads exactly
// what the serial one reads. Each worker summarizes its fixpoint and,
// under DropIntra, releases it at once.
//
// Under the incremental engine a procedure whose FS-stage summary stood
// keeps its previous returns record, without an SCC run, when
// incr.ReturnsRecord.Stands holds. The returned records, one per
// procedure that completed the traversal, are what the run commits
// (all nil unless a later run reads them: incr.Plan.Keep). resummed
// marks the procedures whose summaries this traversal rebuilt, for the
// refresh's delta skip, and exits holds every procedure's exit frame
// (exitFrame), which the refresh's call hooks read.
func (r *run) returns(res *Result, st *driver.PassStats) (recs []*incr.ReturnsRecord, resummed []bool, exits [][]lattice.Elem) {
	ctx, opts, g, ist := r.ctx, r.opts, r.g, r.ist
	res.Returns = make(map[*sem.Proc]lattice.Elem)
	res.ExitEnv = make(map[*sem.Proc]lattice.Env[*sem.Var])
	cg := ctx.CG
	n := len(cg.Reachable)

	returns := make([]lattice.Elem, n)
	exits = make([][]lattice.Elem, n)
	canReturn := make([]bool, n)
	// sums holds the summaries rebuilt under this traversal's call
	// hooks, nil where the FS-stage summary stands (dead or degraded
	// here).
	sums := make([]*incr.ProcSummary, n)
	intra := make([]*scc.Result, n)
	recs = make([]*incr.ReturnsRecord, n)
	var reused, ran atomic.Int64

	// conservative is the know-nothing answer for one procedure: no
	// returned constant, no constant exit values. It is a dead
	// procedure's answer and the sound degradation target of this pass
	// (the FS-stage summary stands).
	conservative := func(i int) {
		returns[i] = lattice.BottomElem()
		exits[i] = make([]lattice.Elem, ctx.Prog.FuncOf[cg.Reachable[i]].FrameLen())
		demoteTop(exits[i])
		canReturn[i] = false
		sums[i], intra[i], recs[i] = nil, nil, nil
	}

	revLevels := reverseLevels(cg)
	st.Levels = len(revLevels)
	st.Width = driver.MaxWidth(revLevels)
	driver.WavefrontCtx(g.ctx, revLevels, driver.Workers(opts.Workers), func(i int) {
		p := cg.Reachable[i]
		if res.Dead[p] {
			conservative(i)
			return
		}
		g.protect("returns", p.Name, func() { conservative(i) }, func() {
			// The call hooks read a callee's summaries only once this
			// traversal has processed it: exactly the procedures after
			// position i, which the reverse wavefront has completed in
			// earlier levels. Any other callee answers ⊥.
			callResult := func(call *ir.CallInstr) lattice.Elem {
				if j := cg.Pos[call.Callee]; j > i {
					return opts.filter(returns[j])
				}
				return lattice.BottomElem()
			}
			callExit := func(call *ir.CallInstr, v *sem.Var) lattice.Elem {
				if j := cg.Pos[call.Callee]; j > i {
					return callExitValue(ctx, opts, call, v, exits[j])
				}
				return lattice.BottomElem()
			}
			calls := ctx.Prog.FuncOf[p].Calls

			// FS reuses a previous summary only when it stands, and
			// allocates a new one otherwise, so pointer equality says
			// that p's FS-stage summary stood.
			old := res.Proc[p]
			if ist != nil && old == ist.plan.Prev[i] {
				rec := ist.plan.PrevReturns[i]
				if rec.Stands(func(k int) lattice.Elem {
					return callResult(calls[k])
				}, func(k, j int) lattice.Elem {
					return callExit(calls[k], calls[k].MayDef[j])
				}) {
					returns[i], exits[i], canReturn[i], sums[i], recs[i] = rec.Return, rec.Exit, rec.CanReturn, rec.Summary, rec
					reused.Add(1)
					return
				}
			}

			ran.Add(1)
			fix := scc.Run(ctx.SSA(i), scc.Options{
				Transient:  opts.DropIntra,
				Entry:      old.Entry,
				CallResult: callResult,
				CallExit:   callExit,
				Budget:     g.budget(),
			})
			ret := fix.ReturnValue()
			if ret.IsTop() {
				ret = lattice.BottomElem() // never returns: nothing to propagate
			}
			returns[i] = ret
			exits[i], canReturn[i] = exitFrame(fix), fix.CanReturn()
			// The second analysis is at least as precise as the first
			// (extra call information only), so it is the final
			// fixpoint, and its site reachability supersedes the first
			// pass's in the summary. Liveness, back edges and the entry
			// environment are unchanged by this traversal, and the
			// shared result maps deliberately keep the FS-stage
			// argument values.
			sums[i] = summarize(ctx, p, fix, old.Dead, old.BackEdges, old.Entry)
			sums[i].Degraded = old.Degraded
			if opts.DropIntra {
				fix.Release()
			} else {
				intra[i] = fix
			}
			if ist != nil && ist.plan.Keep {
				recs[i] = &incr.ReturnsRecord{Return: ret, Exit: exits[i], CanReturn: canReturn[i], Calls: callAnswers(calls, callResult, callExit), Summary: sums[i]}
			}
		})
	})
	// Slots never claimed (context ended mid-wavefront) take the
	// conservative answer.
	g.sweep("returns", cg.Reachable, func(i int) bool { return exits[i] == nil }, conservative)

	// resummed records which procedures' summaries were rebuilt under
	// this traversal's call hooks — the refresh skip needs to know
	// whether a stored summary saw the callees' return/exit values
	// (resummed) or predates them (dead or degraded here: FS-stage,
	// hook-less).
	resummed = make([]bool, n)
	for i, p := range cg.Reachable {
		res.Returns[p] = returns[i]
		res.ExitEnv[p] = exitMap(ctx.Prog.FuncOf[p], exits[i], canReturn[i], res.Entry[p])
		if sums[i] != nil {
			res.Proc[p] = sums[i]
			resummed[i] = true
		}
		if intra[i] != nil {
			res.Intra[p] = intra[i]
		}
	}

	if ist != nil {
		// run= counts SCC runs, as on the FS row.
		st.Cached = reused.Load() > 0
		st.Notes = fmt.Sprintf("reused=%d run=%d", reused.Load(), ran.Load())
	}
	return recs, resummed, exits
}

// callAnswers records what the hooks answer at each of calls: the
// result hook, and the exit hook for every variable the call may
// define. One backing array holds every site's exit answers.
func callAnswers(calls []*ir.CallInstr, result func(*ir.CallInstr) lattice.Elem, exit func(*ir.CallInstr, *sem.Var) lattice.Elem) []incr.CallAnswer {
	n := 0
	for _, call := range calls {
		n += len(call.MayDef)
	}
	backing := make([]lattice.Elem, n)
	answers := make([]incr.CallAnswer, len(calls))
	for k, call := range calls {
		nd := len(call.MayDef)
		a := incr.CallAnswer{Result: result(call), Exit: backing[:nd:nd]}
		backing = backing[nd:]
		for j, v := range call.MayDef {
			a.Exit[j] = exit(call, v)
		}
		answers[k] = a
	}
	return answers
}

// callExitValue maps a may-defined caller variable at a call site to
// the callee's exit value for it, read from the callee's exit frame,
// per the rules in DESIGN.md: a by-ref actual takes the exit value of
// every modified formal it is bound to; a modified global takes its
// own exit value; a variable only in MayDef via alias closure stays ⊥.
func callExitValue(ctx *Context, opts Options, call *ir.CallInstr, v *sem.Var, exit []lattice.Elem) lattice.Elem {
	callee := call.Callee
	mod := ctx.MR.Mod(callee)
	acc := lattice.TopElem()
	contributed := false
	for i, a := range call.ByRef {
		if a != v || i >= len(callee.Params) {
			continue
		}
		if mod.Has(callee.Params[i]) {
			acc = lattice.Meet(acc, opts.filter(exit[i]))
			contributed = true
		}
	}
	if v.IsGlobal() && mod.Has(v) {
		// MOD(callee) lies in the callee's segment.
		acc = lattice.Meet(acc, opts.filter(exit[ctx.Prog.FuncOf[callee].FrameSlot(v)]))
		contributed = true
	}
	if !contributed || acc.IsTop() {
		// Alias-closure member or a never-returning callee: keep the
		// conservative answer.
		return lattice.BottomElem()
	}
	return acc
}

// exitFrame extracts a procedure's exit frame from its final fixpoint
// r, in the layout of its entry frame: each slot's exit value where it
// is constant, ⊥ elsewhere.
func exitFrame(r *scc.Result) []lattice.Elem {
	exit := make([]lattice.Elem, r.S.Fn.FrameLen())
	for k := range exit {
		if exit[k] = r.ExitValue(k); !exit[k].IsConst() {
			exit[k] = lattice.BottomElem()
		}
	}
	return exit
}

// exitMap converts an exit frame of fn to the map form Result.ExitEnv
// reports: its constants, plus, when the procedure can return, the
// entry constants outside the segment (only main's and degraded
// procedures' entries bind any), which it and its callees never touch.
func exitMap(fn *ir.Func, exit []lattice.Elem, canReturn bool, entry lattice.Env[*sem.Var]) lattice.Env[*sem.Var] {
	env := frameEnv(fn, exit)
	if canReturn {
		for v, e := range entry {
			if v.IsGlobal() && e.IsConst() && fn.VarOrd(v) < 0 {
				env[v] = e
			}
		}
	}
	return env
}

// refresh performs one additional forward topological traversal that
// rebuilds every procedure's entry environment with the return and
// exit summaries available at call sites. The summaries were computed
// under environments at or below the refreshed ones, so they remain
// sound over-approximations of runtime behaviour. The traversal is the
// one-pass method's, with call hooks: the same forward wavefront and
// the same step, outside the value cache. The summaries are complete
// and read-only by now, so the hooks are safe from any worker.
//
// Delta skip: a procedure is not re-run when the stored summary
// provably already is what the re-run would produce — it stands under
// the refreshed entry environment (incr.ProcSummary.Stands, the rule
// incremental runs reuse summaries by), and every call hook would
// answer exactly what the pass that built the summary answered. For a
// summary rebuilt by the returns traversal (resummed), forward callees
// impose no condition — the reverse traversal already exposed their
// final return/exit summaries — so only recursive callees must be
// trivial (⊥ return, empty exit environment, matching the reverse
// traversal's back-edge fallback).
// For an FS-stage summary (dead or degraded under the returns
// traversal, built with no hooks at all, i.e. ⊥ everywhere), every
// callee must be trivial. Most procedures in practice call nothing, or
// call only constant-free helpers, so the skip removes the bulk of the
// third traversal's scc runs; Options.NoDeltaSkip forces the full
// re-run.
func (r *run) refresh(res *Result, resummed []bool, exits [][]lattice.Elem) {
	ctx, opts, g := r.ctx, r.opts, r.g
	cg := ctx.CG
	n := len(cg.Reachable)

	// trivialHooks reports whether the refresh hooks for procedure i
	// would answer ⊥ at every call site the stored summary saw ⊥ at.
	trivialHooks := func(i int) bool {
		for _, e := range cg.Out[cg.Reachable[i]] {
			if resummed[i] && !cg.IsBackEdge(e) {
				continue
			}
			if !opts.filter(res.Returns[e.Callee]).IsBottom() || slices.ContainsFunc(exits[cg.Pos[e.Callee]], lattice.Elem.IsConst) {
				return false
			}
		}
		return true
	}
	deltaSkip := !opts.NoDeltaSkip
	var skipped atomic.Int64

	hooks := scc.Options{
		CallResult: func(call *ir.CallInstr) lattice.Elem {
			return opts.filter(res.Returns[call.Callee])
		},
		CallExit: func(call *ir.CallInstr, v *sem.Var) lattice.Elem {
			return callExitValue(ctx, opts, call, v, exits[cg.Pos[call.Callee]])
		},
	}

	fresh := make([]*scc.Result, n)
	sums := make([]*incr.ProcSummary, n)

	// keepOld degrades one procedure to its pre-refresh answer: the
	// previous traversal's result is a complete sound solution, and the
	// refresh only sharpens it, so abandoning the refresh loses
	// precision only.
	keepOld := func(i int) {
		sums[i] = res.Proc[cg.Reachable[i]]
		fresh[i] = nil
	}

	workers := driver.Workers(opts.Workers)
	opts.Trace.Time("returns-refresh", func(st *driver.PassStats) {
		levels := forwardLevels(cg)
		bySum := func(e callgraph.Edge) *incr.ProcSummary { return sums[cg.Pos[e.Caller]] }
		driver.WavefrontCtx(g.ctx, levels, workers, func(i int) {
			p := cg.Reachable[i]
			g.protect("returns-refresh", p.Name, func() { keepOld(i) }, func() {
				env, live, nBack := r.entryEnv(p, bySum, res.FI)
				if old := res.Proc[p]; deltaSkip && old.Stands(env, live, nBack) && trivialHooks(i) {
					sums[i] = old
					skipped.Add(1)
					return
				}
				sums[i], fresh[i] = r.step("", i, env, live, nBack, hooks)
			})
		})
		g.sweep("returns-refresh", cg.Reachable, func(i int) bool { return sums[i] == nil }, keepOld)
		st.Procs = n
		st.Degraded = g.passCount("returns-refresh")
		st.Levels = len(levels)
		st.Width = driver.MaxWidth(levels)
		st.Skipped = int(skipped.Load())
		st.Notes = fmt.Sprintf("workers=%d", workers)
		res.Dead = make(map[*sem.Proc]bool)
		r.install(res, sums, fresh)
	})
}
