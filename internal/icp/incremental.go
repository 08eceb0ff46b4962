package icp

import (
	"fmt"
	"strconv"
	"sync/atomic"

	"fsicp/internal/driver"
	"fsicp/internal/incr"
	"fsicp/internal/lattice"
	"fsicp/internal/scc"
	"fsicp/internal/sem"
)

// This file adapts the incremental engine (internal/incr) to the ICP
// pipeline. The flow-sensitive methods carry their per-procedure
// results as portable summaries (incr.ProcSummary) rather than live
// scc.Result objects; downstream consumers (entry environments, the
// Result's call-site accessors, the public facade) read summaries, so a
// result reused from a previous run is indistinguishable from a freshly
// computed one.

// incrState is one run's view of the engine: the plan (previous
// summaries + value cache), the procedure keys computed for this
// program, and the inputs (kept for the commit).
type incrState struct {
	plan   *incr.Plan
	fps    []string
	inputs incr.RunInputs
	eng    *incr.Engine
	// stats0 snapshots the engine's cumulative store counters at Begin,
	// so storeDelta can report this run's share.
	stats0 incr.StoreStats
}

// beginIncr computes every reachable procedure's key and opens a plan
// against the engine opts.Incr. It returns how many keys were hashed
// rather than kept.
func beginIncr(ctx *Context, opts Options) (*incrState, int) {
	cg := ctx.CG
	n := len(cg.Reachable)
	st := &incrState{fps: make([]string, n), eng: opts.Incr, stats0: opts.Incr.Stats()}
	in := incr.RunInputs{
		ConfigKey:  configKey(opts),
		ProgramKey: incr.GlobalsFingerprint(ctx.Prog.Sem.Globals),
		Procs:      make([]incr.ProcInput, n),
	}
	// Keys memoise on the Func (incr.ProcKey): within a Session the IR
	// is reused across analyses, across the per-config engines, and
	// across the versions a patch takes a function into, so a key is
	// hashed again only when the function or one of its inputs
	// outside the lowered IR changed. Workers take runs of positions,
	// so no two write the same cache lines of fps and in.Procs.
	var keyed atomic.Int64
	const run = 64
	driver.Parallel((n+run-1)/run, driver.Workers(opts.Workers), func(c int) {
		for i := c * run; i < min(n, (c+1)*run); i++ {
			p := cg.Reachable[i]
			fp, kept := incr.ProcKey(p, ctx.Prog.FuncOf[p], ctx.MR.RefGlobals)
			if !kept {
				keyed.Add(1)
			}
			st.fps[i] = fp
			in.Procs[i] = incr.ProcInput{Name: p.Name, FP: fp}
		}
	})
	st.inputs = in
	st.plan = opts.Incr.Begin(in)
	return st, int(keyed.Load())
}

// storeDelta reports the engine's store activity since beginIncr: this
// run's cache traffic.
func (st *incrState) storeDelta() incr.StoreStats {
	return st.eng.Stats().Sub(st.stats0)
}

// fillStoreStats copies a run's value-cache counters into the pass
// record and the result. The persistent-layer counters, and the notes
// they extend, are filled only when a disk layer saw any traffic, so
// memory-only engines leave them zero.
func fillStoreStats(ps *driver.PassStats, res *Result, ist *incrState) {
	ps.Hits, ps.Misses = ist.plan.Hits(), ist.plan.Misses()
	res.CacheHits, res.CacheMisses = ps.Hits, ps.Misses
	ds := ist.storeDelta()
	res.Store = ds
	if ds.DiskHits+ds.DiskMisses+ds.Corrupt == 0 {
		return
	}
	// The driver's stats table renders a disk=hits/lookups note from the
	// structured fields; only the rarer counters go into Notes directly.
	ps.DiskHits = int(ds.DiskHits)
	ps.DiskMisses = int(ds.DiskMisses)
	ps.Evicted = int(ds.Evictions)
	ps.Corrupt = int(ds.Corrupt)
	if ds.Corrupt > 0 {
		ps.Notes = fmt.Sprintf("%s corrupt=%d", ps.Notes, ds.Corrupt)
	}
	if ds.Evictions > 0 {
		ps.Notes = fmt.Sprintf("%s evicted=%d", ps.Notes, ds.Evictions)
	}
}

// configKey identifies the analysis configuration; cached results are
// never shared across configurations. The fuel budget and the active
// fault-injection spec are part of the configuration: a run bounded
// differently degrades different procedures, so its snapshots and
// cached values must not leak into runs under other bounds (the
// degraded summaries themselves are additionally never stored at all).
func configKey(opts Options) string {
	return strconv.Itoa(int(opts.Method)) +
		"f" + strconv.FormatBool(opts.PropagateFloats) +
		"r" + strconv.FormatBool(opts.ReturnConstants) +
		"R" + strconv.FormatBool(opts.ReturnsRefresh) +
		"F" + strconv.Itoa(opts.Fuel) +
		"k" + opts.FaultKey
}

// commit installs the run's FS-stage summaries, and the returns
// records beside them (recs is nil without a returns traversal), as
// the engine's snapshot, where the next run looks up previous results.
// A degraded summary is committed as is: it never stands, so the
// procedure is fully re-analysed on the next run.
func (st *incrState) commit(sums []*incr.ProcSummary, recs []*incr.ReturnsRecord) {
	procs := make(map[string]incr.ProcState, len(sums))
	for i, pi := range st.inputs.Procs {
		ps := incr.ProcState{FP: pi.FP, Summary: sums[i]}
		if recs != nil {
			ps.Returns = recs[i]
		}
		procs[pi.Name] = ps
	}
	st.plan.Commit(&incr.Snapshot{
		ConfigKey:  st.inputs.ConfigKey,
		ProgramKey: st.inputs.ProgramKey,
		Procs:      procs,
	})
}

// summarize distills one scc run into the portable summary downstream
// consumers read. Raw (unfiltered) lattice values are stored; every
// consumer applies opts.filter itself, exactly as the non-incremental
// code path did when reading the scc.Result directly. A site stores
// global values for exactly its callee's REF globals
// (modref.Info.RefGlobals) — the paper's sparse per-call-site candidate
// list — instead of a value per program global.
func summarize(ctx *Context, p *sem.Proc, r *scc.Result, dead bool, nBack int, entry []lattice.Elem) *incr.ProcSummary {
	fn := ctx.Prog.FuncOf[p]
	calls, segment := fn.Calls, fn.Globals()
	sum := &incr.ProcSummary{
		Dead:      dead,
		BackEdges: nBack,
		Entry:     entry,
		Sites:     make([]incr.SiteValues, len(calls)),
	}
	// One backing array each for the per-site argument and global value
	// slices: the summary is immutable once built, so the sites can
	// share storage (capped subslices) instead of allocating per call.
	// GlobIdx aliases the MOD/REF solution's lists directly.
	nargs, nglob := 0, 0
	for _, call := range calls {
		if r.Reachable(call) {
			nargs += len(call.Args)
			nglob += len(ctx.MR.RefGlobals(call.Callee))
		}
	}
	argBacking := make([]lattice.Elem, nargs)
	globBacking := make([]lattice.Elem, nglob)
	for k, call := range calls {
		sv := incr.SiteValues{Reachable: r.Reachable(call)}
		if sv.Reachable {
			na := len(call.Args)
			sv.Args, argBacking = argBacking[:na:na], argBacking[na:]
			for i := range call.Args {
				sv.Args[i] = r.ArgValue(call, i)
			}
			sv.GlobIdx = ctx.MR.RefGlobals(call.Callee)
			ng := len(sv.GlobIdx)
			sv.GlobVals, globBacking = globBacking[:ng:ng], globBacking[ng:]
			// REF(callee) lies in p's segment, and both list globals in
			// declaration order, so one merge walk finds each position.
			o := 0
			for j, gi := range sv.GlobIdx {
				for segment[o].Index != int(gi) {
					o++
				}
				sv.GlobVals[j] = r.GlobalValueAtCall(call, o)
			}
		}
		sum.Sites[k] = sv
	}
	return sum
}
