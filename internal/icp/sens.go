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
	"fsicp/internal/val"
)

// runFS executes the paper's Figure 4 algorithm: one forward
// topological traversal of the PCG, interleaving a single flow-sensitive
// (SCC) intraprocedural analysis of each procedure with interprocedural
// propagation. Back edges consult the flow-insensitive solution, which
// is computed beforehand only when the PCG has cycles.
//
// The traversal is scheduled as a parallel wavefront over the
// forward-edge DAG's topological levels: a procedure's entry
// environment depends only on its forward-edge callers (earlier levels,
// complete behind a barrier) and the precomputed flow-insensitive
// fallback on back edges, so every procedure of a level can be analysed
// concurrently. Each worker writes only its own position-indexed slots;
// the slots are merged into the Result maps serially, so the outcome is
// byte-identical for every worker count.
func runFS(ctx *Context, opts Options) *Result {
	res := newResult(ctx, opts)
	cg := ctx.CG
	n := len(cg.Reachable)
	if n == 0 {
		return res
	}
	g := newGuard(opts)

	// The flow-insensitive fallback is needed exactly when back edges
	// exist (paper §3.2) — and, additionally, whenever the resilience
	// guard is armed: a degrading procedure must find the fallback
	// already computed, so the degraded values (and the trace) stay
	// deterministic at every worker count.
	if cg.HasCycles() || g.armed() {
		opts.Trace.Time("FI", func(st *driver.PassStats) {
			fi := g.ensureFI(ctx, opts)
			if cg.HasCycles() {
				res.FI = fi
				st.Notes = "back-edge fallback"
			} else {
				st.Notes = "degradation fallback"
			}
			st.Procs = n
			st.Degraded = g.passCount("FI")
		})
	}
	res.ProgramGlobalConstants = programGlobalConstants(ctx, opts)

	workers := driver.Workers(opts.Workers)
	rt := newRefTab(ctx, workers)

	// Incremental plan: key every procedure and look up the summary the
	// previous run committed under the same key.
	var ist *incrState
	sums := make([]*incr.ProcSummary, n)
	envs := make([]lattice.Env[*sem.Var], n)
	intra := make([]*scc.Result, n)
	if opts.Incr != nil {
		opts.Trace.Time("incr-plan", func(st *driver.PassStats) {
			ist = beginIncr(ctx, opts, rt)
			st.Procs = n
		})
	}

	pool := newSSAPool(ctx)
	if ist == nil {
		// Cold run: every procedure needs its SSA; build them all
		// concurrently up front. Under the engine SSA is built lazily
		// instead — a procedure whose scc run is served from the value
		// cache never needs it.
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

	var reused atomic.Int64
	opts.Trace.Time("FS", func(st *driver.PassStats) {
		levels := forwardLevels(cg)
		bySum := func(q *sem.Proc) *incr.ProcSummary { return sums[cg.Pos[q]] }
		driver.WavefrontCtx(g.ctx, levels, workers, func(i int) {
			p := cg.Reachable[i]
			g.protect("FS", p.Name, func(resilience.Reason) {
				// Degrade this procedure (only) to the FI solution. The
				// partial fixpoint is discarded — optimistic intermediate
				// values are not sound answers — and nothing is stored in
				// the value cache.
				fb := g.ensureFI(ctx, opts)
				envs[i] = fb.entryEnvFor(p)
				intra[i] = nil
				sums[i] = degradedSummary(ctx, rt, p, fb)
			}, func() {
				env, live, nBack := entryEnv(ctx, opts, p, bySum, res.FI)
				envs[i] = env
				if ist != nil && ist.plan.Prev[i].Stands(env, live, nBack) {
					// Same key and same entry environment: the previous
					// summary is exactly what an SCC run would produce.
					sums[i] = ist.plan.Prev[i]
					reused.Add(1)
					return
				}
				pe := portableEnv(env)
				var key string
				if ist != nil {
					// Value-level cutoff: the same (key, environment)
					// pair was analysed before, in any earlier run.
					key = incr.EnvKey(pe, live)
					if cached, ok := ist.plan.Lookup("fs", p.Name, ist.fps[i], key); ok {
						// Liveness and back-edge counts are per-run facts;
						// only the (deterministic) site values are shared.
						sums[i] = &incr.ProcSummary{Dead: !live, BackEdges: nBack, Entry: pe, Sites: cached.Sites}
						return
					}
				}

				// The single flow-sensitive intraprocedural analysis of p.
				r := scc.Run(pool.get(i), scc.Options{Entry: env, Budget: g.budget(), Transient: opts.DropIntra})
				sums[i] = summarize(ctx, rt, p, r, !live, nBack, pe)
				if opts.DropIntra {
					r.Release()
				} else {
					intra[i] = r
				}
				if ist != nil {
					ist.plan.Store("fs", p.Name, ist.fps[i], key, sums[i])
				}
			})
		})
		// Procedures never claimed (the context ended mid-wavefront)
		// degrade to the FI solution too.
		if reason, detail := g.ctxReason(); g.ctx.Err() != nil {
			for i, p := range cg.Reachable {
				if sums[i] == nil {
					fb := g.ensureFI(ctx, opts)
					envs[i] = fb.entryEnvFor(p)
					sums[i] = degradedSummary(ctx, rt, p, fb)
					g.record(resilience.Degradation{Proc: p.Name, Pass: "FS", Reason: reason, Detail: detail})
				}
			}
		}
		st.Procs = n
		st.Degraded = g.passCount("FS")
		st.Levels = len(levels)
		st.Width = driver.MaxWidth(levels)
		st.Notes = fmt.Sprintf("workers=%d", workers)
		if ist != nil {
			res.ProcsReused = int(reused.Load())
			st.Cached = res.ProcsReused > 0
			st.Hits = ist.plan.Hits()
			st.Misses = ist.plan.Misses()
			st.Notes = fmt.Sprintf("%s reused=%d run=%d ssa-built=%d",
				st.Notes, res.ProcsReused, n-res.ProcsReused, pool.built.Load())
			res.CacheHits = st.Hits
			res.CacheMisses = st.Misses
			fillStoreStats(st, res, ist)
		}
	})

	// Deterministic merge, in topological order.
	for i, p := range cg.Reachable {
		res.Entry[p] = envs[i]
		res.Proc[p] = sums[i]
		if intra[i] != nil {
			res.Intra[p] = intra[i]
		}
		if sums[i].Dead {
			res.Dead[p] = true
		}
		res.BackEdgesUsed += sums[i].BackEdges
		res.mergeSiteValues(p, sums[i])
	}

	// Commit the FS-stage summaries before the returns stages run: the
	// reuse rule compares FS-stage inputs only, and the returns
	// traversals recompute from those summaries deterministically.
	if ist != nil {
		ist.commit(sums)
	}

	if opts.ReturnConstants {
		opts.Trace.Time("returns", func(st *driver.PassStats) {
			runReturns(ctx, opts, res, pool, g, rt, st)
			st.Procs = n
			st.Degraded = g.passCount("returns") + g.passCount("returns-refresh")
		})
	}
	res.Degradations = g.list()
	return res
}

// newResult allocates the shared Result map set.
func newResult(ctx *Context, opts Options) *Result {
	return &Result{
		Ctx:                ctx,
		Opts:               opts,
		Entry:              make(map[*sem.Proc]lattice.Env[*sem.Var]),
		ArgVals:            make(map[*ir.CallInstr][]lattice.Elem),
		GlobalCallVals:     make(map[*ir.CallInstr]map[*sem.Var]val.Value),
		VisibleCallGlobals: make(map[*ir.CallInstr]map[*sem.Var]val.Value),
		Proc:               make(map[*sem.Proc]*incr.ProcSummary),
		Intra:              make(map[*sem.Proc]*scc.Result),
		Dead:               make(map[*sem.Proc]bool),
	}
}

// programGlobalConstants computes the flow-insensitive program-wide
// global constants (needed even when the PCG is acyclic, for the
// Table 1/2 flow-insensitive global columns and as documentation of the
// block-data solution).
func programGlobalConstants(ctx *Context, opts Options) map[*sem.Var]val.Value {
	out := make(map[*sem.Var]val.Value)
	if len(ctx.CG.Reachable) == 0 {
		return out
	}
	main := ctx.CG.Reachable[0]
	for g, v := range ctx.Prog.Sem.GlobalInit {
		if ctx.MR.Mod[main].Has(g) {
			continue
		}
		if !opts.PropagateFloats && v.IsFloat() {
			continue
		}
		out[g] = v
	}
	return out
}
