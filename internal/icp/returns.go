package icp

import (
	"fmt"
	"sync/atomic"

	"fsicp/internal/driver"
	"fsicp/internal/incr"
	"fsicp/internal/ir"
	"fsicp/internal/lattice"
	"fsicp/internal/resilience"
	"fsicp/internal/scc"
	"fsicp/internal/sem"
)

// runReturns implements the paper's §3.2 return-constant extension: one
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
// what the serial one reads.
func runReturns(ctx *Context, opts Options, res *Result, pool *ssaPool, g *guard, rt *refTab, st *driver.PassStats) {
	res.Returns = make(map[*sem.Proc]lattice.Elem)
	res.ExitEnv = make(map[*sem.Proc]lattice.Env[*sem.Var])
	cg := ctx.CG
	n := len(cg.Reachable)

	returns := make([]lattice.Elem, n)
	exits := make([]lattice.Env[*sem.Var], n)
	intra := make([]*scc.Result, n)

	// conservative is the know-nothing answer for one procedure: no
	// returned constant, no constant exit values. It is the sound
	// degradation target of this pass (the FS-stage summary stands).
	conservative := func(i int) {
		returns[i] = lattice.BottomElem()
		exits[i] = make(lattice.Env[*sem.Var])
		intra[i] = nil
	}

	revLevels := reverseLevels(cg)
	st.Levels = len(revLevels)
	st.Width = driver.MaxWidth(revLevels)
	driver.WavefrontCtx(g.ctx, revLevels, driver.Workers(opts.Workers), func(i int) {
		p := cg.Reachable[i]
		if res.Dead[p] {
			returns[i] = lattice.BottomElem()
			exits[i] = make(lattice.Env[*sem.Var])
			return
		}
		g.protect("returns", p.Name, func(resilience.Reason) {
			conservative(i)
		}, func() {

			// processed reports whether a callee's summaries are available
			// from this traversal: exactly the procedures after position i,
			// which the reverse wavefront has completed in earlier levels.
			processed := func(callee *sem.Proc) (lattice.Env[*sem.Var], lattice.Elem, bool) {
				j := cg.Pos[callee]
				if j <= i {
					return nil, lattice.Elem{}, false
				}
				return exits[j], returns[j], true
			}

			r := scc.Run(pool.get(i), scc.Options{
				Transient: opts.DropIntra,
				Entry:     res.Entry[p],
				CallResult: func(call *ir.CallInstr) lattice.Elem {
					_, ret, ok := processed(call.Callee)
					if !ok {
						return lattice.BottomElem()
					}
					return opts.filter(ret)
				},
				CallExit: func(call *ir.CallInstr, v *sem.Var) lattice.Elem {
					exit, _, ok := processed(call.Callee)
					if !ok {
						return lattice.BottomElem()
					}
					return callExitValue(ctx, opts, call, v, exit)
				},
				Budget: g.budget(),
			})
			// The second analysis is at least as precise as the first
			// (extra call information only); adopt it as the final
			// intraprocedural fixpoint.
			intra[i] = r

			ret := r.ReturnValue()
			if ret.IsTop() {
				ret = lattice.BottomElem() // never returns: nothing to propagate
			}
			returns[i] = ret
			exits[i] = exitEnv(p, r, res.Entry[p])
		})
	})

	// Slots never claimed (context ended mid-wavefront) take the
	// conservative answer.
	if reason, detail := g.ctxReason(); g.ctx.Err() != nil {
		for i, p := range cg.Reachable {
			if exits[i] == nil {
				conservative(i)
				g.record(resilience.Degradation{Proc: p.Name, Pass: "returns", Reason: reason, Detail: detail})
			}
		}
	}

	// resummed records which procedures' summaries were rebuilt under
	// this traversal's call hooks — the refresh skip needs to know
	// whether a stored summary saw the callees' return/exit values
	// (resummed) or predates them (dead or degraded here: FS-stage,
	// hook-less).
	resummed := make([]bool, n)
	for i, p := range cg.Reachable {
		res.Returns[p] = returns[i]
		res.ExitEnv[p] = exits[i]
		if intra[i] != nil {
			// The second pass is the final fixpoint; its site
			// reachability supersedes the first pass's in the summary
			// (liveness, back edges, and the entry environment are
			// unchanged by this traversal, and the shared result maps
			// deliberately keep the FS-stage argument values).
			old := res.Proc[p]
			ns := summarize(ctx, rt, p, intra[i], old.Dead, old.BackEdges, old.Entry)
			ns.Degraded = old.Degraded
			res.Proc[p] = ns
			resummed[i] = true
			if opts.DropIntra {
				intra[i].Release()
			} else {
				res.Intra[p] = intra[i]
			}
		}
	}

	if opts.ReturnsRefresh {
		refreshForward(ctx, opts, res, pool, g, rt, resummed)
	}
}

// callExitValue maps a may-defined caller variable at a call site to
// the callee's exit value for it, per the rules in DESIGN.md: a by-ref
// actual takes the exit value of every modified formal it is bound to;
// a modified global takes its own exit value; a variable only in MayDef
// via alias closure stays ⊥.
func callExitValue(ctx *Context, opts Options, call *ir.CallInstr, v *sem.Var, exit lattice.Env[*sem.Var]) lattice.Elem {
	callee := call.Callee
	acc := lattice.TopElem()
	contributed := false
	for i, a := range call.ByRef {
		if a != v || i >= len(callee.Params) {
			continue
		}
		f := callee.Params[i]
		if ctx.MR.Mod[callee].Has(f) {
			acc = lattice.Meet(acc, opts.filter(exit.Get(f)))
			contributed = true
		}
	}
	if v.IsGlobal() && ctx.MR.Mod[callee].Has(v) {
		acc = lattice.Meet(acc, opts.filter(exit.Get(v)))
		contributed = true
	}
	if !contributed || acc.IsTop() {
		// Alias-closure member or a never-returning callee: keep the
		// conservative answer.
		return lattice.BottomElem()
	}
	return acc
}

// exitEnv extracts the constant exit values of p's formals and the
// globals from its final fixpoint r under entry. A global outside p's
// segment (REF*(p) ∪ MOD*(p)) is untouched by p and its callees, so it
// leaves p with its entry value whenever p returns at all.
func exitEnv(p *sem.Proc, r *scc.Result, entry lattice.Env[*sem.Var]) lattice.Env[*sem.Var] {
	exit := make(lattice.Env[*sem.Var])
	for _, f := range p.Params {
		if e := r.ExitValue(f); e.IsConst() {
			exit[f] = e
		}
	}
	fn := r.S.Fn
	for _, g := range fn.Globals() {
		if e := r.ExitValue(g); e.IsConst() {
			exit[g] = e
		}
	}
	if r.CanReturn() {
		for v, e := range entry {
			if v.IsGlobal() && e.IsConst() && fn.VarOrd(v) < 0 {
				exit[v] = e
			}
		}
	}
	return exit
}

// refreshForward performs one additional forward topological traversal
// that rebuilds every procedure's entry environment with the return and
// exit summaries available at call sites. The summaries were computed
// under environments at or below the refreshed ones, so they remain
// sound over-approximations of runtime behaviour. The traversal runs as
// the same forward wavefront as runFS; the summaries are complete and
// read-only by now, so the hooks are safe from any worker.
//
// Delta skip: a procedure is not re-run when the stored summary
// provably already is what the re-run would produce — it stands under
// the refreshed entry environment (incr.ProcSummary.Stands, the rule
// incremental runs reuse summaries by), and every call hook would
// answer exactly what the pass that built the summary answered. For a
// summary rebuilt by runReturns (resummed), forward callees impose no
// condition — the reverse traversal already exposed their final
// return/exit summaries — so only recursive callees must be trivial (⊥
// return, empty exit environment, matching the reverse traversal's
// back-edge fallback).
// For an FS-stage summary (dead or degraded under runReturns, built
// with no hooks at all, i.e. ⊥ everywhere), every callee must be
// trivial. Most procedures in practice call nothing, or call only
// constant-free helpers, so the skip removes the bulk of the third
// traversal's scc runs; Options.NoDeltaSkip forces the full re-run.
func refreshForward(ctx *Context, opts Options, res *Result, pool *ssaPool, g *guard, rt *refTab, resummed []bool) {
	cg := ctx.CG
	n := len(cg.Reachable)
	if n == 0 {
		return
	}

	// trivialHooks reports whether the refresh hooks for procedure i
	// would answer ⊥ at every call site the stored summary saw ⊥ at.
	trivialHooks := func(i int) bool {
		for _, e := range cg.Out[cg.Reachable[i]] {
			if resummed[i] && !cg.IsBackEdge(e) {
				continue
			}
			if !opts.filter(res.Returns[e.Callee]).IsBottom() || len(res.ExitEnv[e.Callee]) != 0 {
				return false
			}
		}
		return true
	}
	deltaSkip := !opts.NoDeltaSkip
	var skipped atomic.Int64

	callResult := func(call *ir.CallInstr) lattice.Elem {
		return opts.filter(res.Returns[call.Callee])
	}
	callExit := func(call *ir.CallInstr, v *sem.Var) lattice.Elem {
		return callExitValue(ctx, opts, call, v, res.ExitEnv[call.Callee])
	}

	fresh := make([]*scc.Result, n)
	sums := make([]*incr.ProcSummary, n)
	entry := make([]lattice.Env[*sem.Var], n)

	// keepOld degrades one procedure to its pre-refresh answer: the
	// previous traversal's result is a complete sound solution, and the
	// refresh only sharpens it, so abandoning the refresh loses
	// precision only.
	keepOld := func(i int) {
		p := cg.Reachable[i]
		entry[i] = res.Entry[p]
		sums[i] = res.Proc[p]
		fresh[i] = nil
	}

	workers := driver.Workers(opts.Workers)
	opts.Trace.Time("returns-refresh", func(st *driver.PassStats) {
		levels := forwardLevels(cg)
		bySum := func(q *sem.Proc) *incr.ProcSummary { return sums[cg.Pos[q]] }
		driver.WavefrontCtx(g.ctx, levels, workers, func(i int) {
			p := cg.Reachable[i]
			g.protect("returns-refresh", p.Name, func(resilience.Reason) {
				keepOld(i)
			}, func() {
				env, live, nBack := entryEnv(ctx, opts, p, bySum, res.FI)
				entry[i] = env
				if old := res.Proc[p]; deltaSkip && old.Stands(env, live, nBack) && trivialHooks(i) {
					sums[i] = old
					skipped.Add(1)
					return
				}
				r := scc.Run(pool.get(i), scc.Options{Entry: env, CallResult: callResult, CallExit: callExit, Budget: g.budget(), Transient: opts.DropIntra})
				sums[i] = summarize(ctx, rt, p, r, !live, nBack, portableEnv(env))
				if opts.DropIntra {
					r.Release()
				} else {
					fresh[i] = r
				}
			})
		})
		if reason, detail := g.ctxReason(); g.ctx.Err() != nil {
			for i, p := range cg.Reachable {
				if sums[i] == nil {
					keepOld(i)
					g.record(resilience.Degradation{Proc: p.Name, Pass: "returns-refresh", Reason: reason, Detail: detail})
				}
			}
		}
		st.Procs = n
		st.Degraded = g.passCount("returns-refresh")
		st.Levels = len(levels)
		st.Width = driver.MaxWidth(levels)
		st.Skipped = int(skipped.Load())
		st.Notes = fmt.Sprintf("workers=%d", workers)
	})

	res.Dead = make(map[*sem.Proc]bool)
	for i, p := range cg.Reachable {
		res.Entry[p] = entry[i]
		if fresh[i] != nil {
			res.Intra[p] = fresh[i]
		}
		res.Proc[p] = sums[i]
		if sums[i].Dead {
			res.Dead[p] = true
		}
		res.mergeSiteValues(p, sums[i])
	}
}
