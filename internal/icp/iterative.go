package icp

import (
	"fmt"
	"sync/atomic"

	"fsicp/internal/callgraph"
	"fsicp/internal/driver"
	"fsicp/internal/incr"
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
// rounds — but a (key, environment) pair an earlier run analysed, on
// this or an edited version of the program, skips the physical scc run
// through the value cache. Within one run no pair recurs: a
// procedure's environment only descends, and an unchanged one already
// stands. Result.SCCRuns still counts logical runs, so it matches a
// cold run.
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
	r := newRun(ctx, opts, g, res.ProgramGlobalConstants)

	// Current state, one slot per PCG position (owner-written only), and
	// the round-start snapshot back edges read from.
	sums := make([]*incr.ProcSummary, n)
	prevSums := make([]*incr.ProcSummary, n)
	intra := make([]*scc.Result, n)
	// degraded pins a procedure to its FI fallback for all remaining
	// rounds: its contribution is then stable, so the fixpoint still
	// converges, and the other procedures keep iterating normally.
	degraded := make([]bool, n)

	levels := forwardLevels(cg)
	var sccRuns atomic.Int64

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
	var changed atomic.Bool

	// fiDegrade pins procedure i to the FI solution; a partial fixpoint
	// is discarded, as in the one-pass method.
	fiDegrade := func(i int) {
		p := cg.Reachable[i]
		degraded[i] = true
		sums[i] = degradedSummary(ctx, p, g.ensureFI(ctx, opts))
		intra[i] = nil
		changed.Store(true)
		markCallees(p)
	}
	// Forward edges read the current round's slots, back edges the
	// round-start snapshot.
	bySum := func(e callgraph.Edge) *incr.ProcSummary {
		if cg.IsBackEdge(e) {
			return prevSums[cg.Pos[e.Caller]]
		}
		return sums[cg.Pos[e.Caller]]
	}

	workers := driver.Workers(opts.Workers)
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
			changed.Store(false)
			driver.WavefrontCtx(g.ctx, levels, workers, func(i int) {
				if degraded[i] {
					return
				}
				if deltaSkip && round > 0 && !dirty[i].Load() {
					skipped.Add(1)
					return
				}
				p := cg.Reachable[i]
				g.protect("FS-iterative", p.Name, func() { fiDegrade(i) }, func() {
					env, live, nBack := r.entryEnv(p, bySum, nil)
					if sums[i].Stands(env, live, nBack) {
						return
					}
					sccRuns.Add(1)
					changed.Store(true)
					markCallees(p)
					sums[i], intra[i] = r.step("iter", i, env, live, nBack, scc.Options{})
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
		g.sweep("FS-iterative", cg.Reachable, func(i int) bool { return !degraded[i] }, fiDegrade)
		st.Procs = n
		st.Degraded = g.passCount("FS-iterative")
		st.Notes = fmt.Sprintf("workers=%d rounds=%d", workers, res.Iterations)
		st.Levels = len(levels)
		st.Width = driver.MaxWidth(levels)
		st.Skipped = int(skipped.Load())
		if r.ist != nil {
			// scc-runs= counts the evaluations the value cache did not
			// answer.
			st.Notes = fmt.Sprintf("%s scc-runs=%d", st.Notes, int(sccRuns.Load())-r.ist.plan.Hits())
			fillStoreStats(st, res, r.ist)
			st.Cached = st.Hits > 0
		}
		res.SCCRuns = int(sccRuns.Load())
		r.install(res, sums, intra)
	})

	// Keep the engine's generations turning so the value cache ages
	// out; the method never reads the snapshot's summaries back.
	if r.ist != nil {
		r.ist.commit(sums, nil)
	}
	res.Degradations = g.list()
	return res
}
