package icp

import (
	"fmt"
	"sync/atomic"

	"fsicp/internal/callgraph"
	"fsicp/internal/driver"
	"fsicp/internal/incr"
	"fsicp/internal/ir"
	"fsicp/internal/lattice"
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
	r := newRun(ctx, opts, g, res.ProgramGlobalConstants)

	sums := make([]*incr.ProcSummary, n)
	intra := make([]*scc.Result, n)
	// fiDegrade answers procedure i from the FI solution: a partial
	// fixpoint is discarded — optimistic intermediate values are not
	// sound answers — and nothing is stored in the value cache.
	fiDegrade := func(i int) {
		sums[i] = degradedSummary(ctx, cg.Reachable[i], g.ensureFI(ctx, opts))
	}

	var reused, evals atomic.Int64
	workers := driver.Workers(opts.Workers)
	opts.Trace.Time("FS", func(st *driver.PassStats) {
		levels := forwardLevels(cg)
		bySum := func(e callgraph.Edge) *incr.ProcSummary { return sums[cg.Pos[e.Caller]] }
		driver.WavefrontCtx(g.ctx, levels, workers, func(i int) {
			p := cg.Reachable[i]
			g.protect("FS", p.Name, func() { fiDegrade(i) }, func() {
				env, live, nBack := r.entryEnv(p, bySum, res.FI)
				if r.ist != nil && r.ist.plan.Prev[i].Stands(env, live, nBack) {
					// Same key and same entry environment: the previous
					// summary is exactly what an SCC run would produce.
					sums[i] = r.ist.plan.Prev[i]
					reused.Add(1)
					return
				}
				// The single flow-sensitive intraprocedural analysis of p.
				evals.Add(1)
				sums[i], intra[i] = r.step("fs", i, env, live, nBack, scc.Options{})
			})
		})
		// Procedures never claimed (the context ended mid-wavefront)
		// degrade to the FI solution too.
		g.sweep("FS", cg.Reachable, func(i int) bool { return sums[i] == nil }, fiDegrade)
		st.Procs = n
		st.Degraded = g.passCount("FS")
		st.Levels = len(levels)
		st.Width = driver.MaxWidth(levels)
		st.Notes = fmt.Sprintf("workers=%d", workers)
		if r.ist != nil {
			res.ProcsReused = int(reused.Load())
			st.Cached = res.ProcsReused > 0
			// run= counts SCC runs: the evaluations the value cache did
			// not answer.
			st.Notes = fmt.Sprintf("%s reused=%d run=%d", st.Notes, res.ProcsReused, int(evals.Load())-r.ist.plan.Hits())
			fillStoreStats(st, res, r.ist)
		}
		r.install(res, sums, intra)
		for _, sum := range sums {
			res.BackEdgesUsed += sum.BackEdges
		}
	})

	var recs []*incr.ReturnsRecord
	if opts.ReturnConstants {
		var resummed []bool
		var exits [][]lattice.Elem
		opts.Trace.Time("returns", func(st *driver.PassStats) {
			recs, resummed, exits = r.returns(res, st)
			st.Procs = n
			st.Degraded = g.passCount("returns")
		})
		// The refresh is a pass of its own: its row follows the
		// returns row and holds only its own time and degradations.
		if opts.ReturnsRefresh {
			r.refresh(res, resummed, exits)
		}
	}
	// The snapshot holds the FS-stage summaries (FS reuse compares
	// FS-stage inputs), not the ones the returns traversal re-derived,
	// which travel in the returns records beside them.
	if r.ist != nil {
		r.ist.commit(sums, recs)
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
		if ctx.MR.Mod(main).Has(g) {
			continue
		}
		if !opts.PropagateFloats && v.IsFloat() {
			continue
		}
		out[g] = v
	}
	return out
}
