package icp

import (
	"fmt"
	"sync/atomic"

	"fsicp/internal/driver"
	"fsicp/internal/incr"
	"fsicp/internal/lattice"
	"fsicp/internal/resilience"
	"fsicp/internal/scc"
	"fsicp/internal/sem"
)

// runFSIterative implements the comparison point the paper's §3.2
// refers to: a fully iterative flow-sensitive interprocedural analysis
// that re-runs the intraprocedural propagator whenever a procedure's
// entry environment changes, until a global fixpoint. It does not use
// the flow-insensitive fallback: back edges simply contribute their
// callers' latest values, and the optimistic descent (all contributions
// start at ⊤) converges because environments only move down a finite
// lattice.
//
// The paper avoids this method because it performs more than one
// flow-sensitive analysis per procedure; Result.SCCRuns records how
// many were needed, which the iterative-comparison experiment reports.
// On an acyclic PCG the one-pass method produces exactly the same
// solution (the equivalence test in the icp tests and the property
// tests check this).
//
// Each fixpoint round runs as a parallel wavefront over the
// forward-edge DAG's topological levels. The serial traversal reads, at
// procedure p, the current round's results of forward-edge callers
// (they precede p in topological order) and the previous round's
// results of back-edge callers (they follow p, or are p itself). The
// wavefront preserves exactly that: forward edges read the
// current-round slots of earlier levels (complete behind the barrier),
// back edges read a snapshot taken at round start. Rounds, re-analysis
// counts, and the solution are therefore identical to the serial
// schedule for every worker count.
//
// With an incremental engine attached, the method never reuses a
// previous run's summary — a procedure's environment moves over the
// rounds — but every (key, environment) pair that recurs, whether
// within one fixpoint or across edited versions of the program, skips
// the physical scc run through the value cache.
// Result.SCCRuns still counts logical runs, so it matches a cold run.
func runFSIterative(ctx *Context, opts Options) *Result {
	res := newResult(ctx, opts)
	cg := ctx.CG
	n := len(cg.Reachable)
	if n == 0 {
		return res
	}
	res.ProgramGlobalConstants = programGlobalConstants(ctx, opts)
	g := newGuard(opts)

	// The iterative method has no use for the FI solution itself, but
	// the resilience layer degrades to it; compute it up front whenever
	// degradation is possible so workers find it ready.
	if g.armed() {
		opts.Trace.Time("FI", func(st *driver.PassStats) {
			g.ensureFI(ctx, opts)
			st.Procs = n
			st.Notes = "degradation fallback"
			st.Degraded = g.passCount("FI")
		})
	}

	workers := driver.Workers(opts.Workers)
	rt := newRefTab(ctx, workers)

	var ist *incrState
	if opts.Incr != nil {
		opts.Trace.Time("incr-plan", func(st *driver.PassStats) {
			ist = beginIncr(ctx, opts, rt)
			st.Procs = n
		})
	}

	pool := newSSAPool(ctx)
	if ist == nil {
		// Cold run: every procedure runs at least once in round zero,
		// so prebuild all SSA concurrently. Under the engine SSA is
		// built lazily — round-zero value-cache hits never need it.
		opts.Trace.Time("ssa", func(st *driver.PassStats) {
			hits := pool.prebuilt()
			pool.prebuild(nil, workers)
			st.Procs = n
			st.Notes = fmt.Sprintf("workers=%d", workers)
			if hits > 0 {
				// Seeded from the load-time prebuild (Context.SSACache).
				st.Cached = true
				st.Hits, st.Misses = hits, n-hits
			}
		})
	}

	// Current state, one slot per PCG position (owner-written only), and
	// the round-start snapshot back edges read from.
	sums := make([]*incr.ProcSummary, n)
	prevSums := make([]*incr.ProcSummary, n)
	entry := make([]lattice.Env[*sem.Var], n)
	intra := make([]*scc.Result, n)
	// degraded pins a procedure to its FI fallback for all remaining
	// rounds: its contribution is then stable, so the fixpoint still
	// converges, and the other procedures keep iterating normally.
	degraded := make([]bool, n)

	levels := forwardLevels(cg)
	var sccRuns, physRuns atomic.Int64

	// Delta propagation: after round zero, a procedure is re-examined
	// only when some caller's summary was replaced since its last
	// visit. A forward-edge caller that changes marks its callees
	// dirty for the current round (their levels run after its
	// barrier); a back-edge caller marks them for the next round (the
	// replacement becomes visible only in the next round-start
	// snapshot). A clean procedure would rebuild its entry environment
	// from the identical summaries it read last time and take the
	// Stands early-return below, so skipping the rebuild is
	// byte-identical — same rounds, same scc runs, same solution — and
	// saves the per-procedure entry construction that otherwise
	// dominates late, mostly-converged rounds. The marks are atomic
	// because procedures of one level mark shared callees
	// concurrently; a mark always lands before the marked procedure's
	// level barrier, so no evaluation misses it.
	deltaSkip := !opts.NoDeltaSkip
	dirty := make([]atomic.Bool, n)
	nextDirty := make([]atomic.Bool, n)
	markCallees := func(p *sem.Proc) {
		for _, e := range cg.Out[p] {
			j := cg.Pos[e.Callee]
			if cg.IsBackEdge(e) {
				nextDirty[j].Store(true)
			} else {
				dirty[j].Store(true)
			}
		}
	}
	var skipped atomic.Int64

	opts.Trace.Time("FS-iterative", func(st *driver.PassStats) {
		// Iterate to the global fixpoint. The PCG order keeps the round
		// count low; a guard bounds runaway loops (the lattice
		// guarantees termination, the guard guards the guarantee).
		const maxRounds = 1000
		for round := 0; round < maxRounds; round++ {
			if g.ctx.Err() != nil {
				break
			}
			res.Iterations = round + 1
			copy(prevSums, sums)
			var changed atomic.Bool
			driver.WavefrontCtx(g.ctx, levels, workers, func(i int) {
				if degraded[i] {
					return
				}
				if deltaSkip && round > 0 && !dirty[i].Load() {
					skipped.Add(1)
					return
				}
				p := cg.Reachable[i]
				g.protect("FS-iterative", p.Name, func(resilience.Reason) {
					degraded[i] = true
					fb := g.ensureFI(ctx, opts)
					entry[i] = fb.entryEnvFor(p)
					sums[i] = degradedSummary(ctx, rt, p, fb)
					intra[i] = nil
					changed.Store(true)
					markCallees(p)
				}, func() {
					env, live := iterEntryEnv(ctx, opts, i, sums, prevSums)
					if sums[i].Stands(env, live, 0) {
						return
					}
					if !live {
						env = make(lattice.Env[*sem.Var])
					}
					entry[i] = env
					sccRuns.Add(1)
					changed.Store(true)
					markCallees(p)
					pe := portableEnv(env)
					var key string
					if ist != nil {
						key = incr.EnvKey(pe, live)
						if cached, ok := ist.plan.Lookup("iter", p.Name, ist.fps[i], key); ok {
							sums[i] = &incr.ProcSummary{Dead: !live, Entry: pe, Sites: cached.Sites}
							intra[i] = nil // from an older environment; stale
							return
						}
					}
					physRuns.Add(1)
					r := scc.Run(pool.get(i), scc.Options{Entry: env, Budget: g.budget(), Transient: opts.DropIntra})
					sums[i] = summarize(ctx, rt, p, r, !live, 0, pe)
					if opts.DropIntra {
						r.Release()
						intra[i] = nil
					} else {
						intra[i] = r
					}
					if ist != nil {
						ist.plan.Store("iter", p.Name, ist.fps[i], key, sums[i])
					}
				})
			})
			if !changed.Load() {
				break
			}
			// Hand the next round its dirty set: the back-edge marks
			// accumulated this round. Forward marks were consumed by the
			// levels behind them; anything left is stale.
			if deltaSkip {
				for j := range dirty {
					dirty[j].Store(nextDirty[j].Load())
					nextDirty[j].Store(false)
				}
			}
		}
		// A fixpoint interrupted by cancellation is not a sound answer:
		// intermediate values are optimistic (they descend towards the
		// solution from above), so every procedure that has not already
		// been pinned degrades to the FI solution.
		if reason, detail := g.ctxReason(); g.ctx.Err() != nil {
			fb := g.ensureFI(ctx, opts)
			for i, p := range cg.Reachable {
				if degraded[i] {
					continue
				}
				degraded[i] = true
				entry[i] = fb.entryEnvFor(p)
				sums[i] = degradedSummary(ctx, rt, p, fb)
				intra[i] = nil
				g.record(resilience.Degradation{Proc: p.Name, Pass: "FS-iterative", Reason: reason, Detail: detail})
			}
		}
		st.Procs = n
		st.Degraded = g.passCount("FS-iterative")
		st.Notes = fmt.Sprintf("workers=%d rounds=%d", workers, res.Iterations)
		st.Levels = len(levels)
		st.Width = driver.MaxWidth(levels)
		st.Skipped = int(skipped.Load())
		if ist != nil {
			st.Hits = ist.plan.Hits()
			st.Misses = ist.plan.Misses()
			st.Cached = st.Hits > 0
			st.Notes = fmt.Sprintf("%s scc-runs=%d ssa-built=%d", st.Notes, physRuns.Load(), pool.built.Load())
			res.CacheHits = st.Hits
			res.CacheMisses = st.Misses
			fillStoreStats(st, res, ist)
		}
	})
	res.SCCRuns = int(sccRuns.Load())

	for i, p := range cg.Reachable {
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

	// Keep the engine's generations turning so the value cache ages
	// out; the method never reads the snapshot's summaries back.
	if ist != nil {
		ist.commit(sums)
	}
	res.Degradations = g.list()
	return res
}

// iterEntryEnv builds p's entry environment from every caller's latest
// summary: current-round slots for forward-edge callers, the
// round-start snapshot for back-edge callers (including self-calls).
// Callers without results yet contribute ⊤ (optimism), as do
// unreachable call sites.
func iterEntryEnv(ctx *Context, opts Options, pos int, sums, prevSums []*incr.ProcSummary) (lattice.Env[*sem.Var], bool) {
	cg := ctx.CG
	globals := ctx.Prog.Sem.Globals
	p := cg.Reachable[pos]
	if pos == 0 {
		env := make(lattice.Env[*sem.Var])
		for g, v := range ctx.Prog.Sem.GlobalInit {
			env[g] = opts.filter(lattice.Const(v))
		}
		return env, true
	}
	env := make(lattice.Env[*sem.Var], len(p.Params)+len(ctx.Prog.FuncOf[p].Globals()))
	nExec := 0
	for _, e := range cg.In[p] {
		j := cg.Pos[e.Caller]
		var sum *incr.ProcSummary
		if cg.IsBackEdge(e) {
			sum = prevSums[j]
		} else {
			sum = sums[j]
		}
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
		// The site stores values for exactly Ref(p) (sparse per-site
		// candidates); iterate the stored pairs directly.
		for j, gi := range sv.GlobIdx {
			env.MeetInto(globals[gi], opts.filter(sv.GlobVals[j]))
		}
	}
	demoteTop(env)
	return env, nExec > 0
}
