package icp

import (
	"fmt"
	"sort"
	"strconv"
	"sync/atomic"

	"fsicp/internal/driver"
	"fsicp/internal/incr"
	"fsicp/internal/ir"
	"fsicp/internal/lattice"
	"fsicp/internal/scc"
	"fsicp/internal/sem"
	"fsicp/internal/ssa"
	"fsicp/internal/val"
)

// This file adapts the incremental engine (internal/incr) to the ICP
// pipeline. The flow-sensitive methods now carry their per-procedure
// results as portable summaries (incr.ProcSummary) rather than live
// scc.Result objects; downstream consumers (entry environments,
// call-site merges, the public facade) read summaries, so a result
// reused from a previous run is indistinguishable from a freshly
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
// against the engine. Returns nil when no engine is attached.
func beginIncr(ctx *Context, opts Options, rt *refTab) *incrState {
	if opts.Incr == nil {
		return nil
	}
	cg := ctx.CG
	n := len(cg.Reachable)
	st := &incrState{fps: make([]string, n), eng: opts.Incr, stats0: opts.Incr.Stats()}
	in := incr.RunInputs{
		ConfigKey:  configKey(opts),
		ProgramKey: incr.GlobalsFingerprint(ctx.Prog.Sem.Globals, ctx.Prog.Sem.GlobalInit),
		Procs:      make([]incr.ProcInput, n),
	}
	// Keys memoise on the Func: within a Session the IR program is
	// reused wholesale across analyses (and across the per-config
	// engines), so each program version is hashed at most once. The
	// key also covers the callees' REF layouts; MOD/REF is recomputed
	// only after an IR mutation, which resets the memo.
	driver.Parallel(n, driver.Workers(opts.Workers), func(i int) {
		p := cg.Reachable[i]
		st.fps[i] = ctx.Prog.FuncOf[p].Fingerprint(func(fn *ir.Func) string {
			return incr.ProcFingerprint(p, fn, rt.of)
		})
		in.Procs[i] = incr.ProcInput{Name: p.Name, FP: st.fps[i]}
	})
	st.inputs = in
	st.plan = opts.Incr.Begin(in)
	return st
}

// storeDelta reports the engine's store activity since beginIncr: this
// run's cache traffic.
func (st *incrState) storeDelta() incr.StoreStats {
	return st.eng.Stats().Sub(st.stats0)
}

// fillStoreStats copies a run's persistent-layer counters into the
// pass record and the result, and extends the pass notes, when a disk
// layer saw any traffic. Memory-only engines leave everything zero.
func fillStoreStats(ps *driver.PassStats, res *Result, ist *incrState) {
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

// commit installs the run's summaries as the engine's snapshot, where
// the next run looks up previous summaries. A degraded summary is
// committed as is: it never stands, so the procedure is fully
// re-analysed on the next run.
func (st *incrState) commit(sums []*incr.ProcSummary) {
	procs := make(map[string]incr.ProcState, len(sums))
	for i, pi := range st.inputs.Procs {
		procs[pi.Name] = incr.ProcState{FP: pi.FP, Summary: sums[i]}
	}
	st.plan.Commit(&incr.Snapshot{
		ConfigKey:  st.inputs.ConfigKey,
		ProgramKey: st.inputs.ProgramKey,
		Procs:      procs,
	})
}

// portableEnv converts a bound entry environment to the name-keyed
// form summaries carry. Names are unique within an environment:
// formals and globals share a procedure-level namespace (sem rejects
// shadowing).
func portableEnv(env lattice.Env[*sem.Var]) map[string]lattice.Elem {
	m := make(map[string]lattice.Elem, len(env))
	for v, e := range env {
		m[v.Name] = e
	}
	return m
}

// refTab holds, per reachable-PCG position, the declaration indices of
// the globals in that procedure's transitive REF set, ascending. Built
// once per run and read-only afterwards, so concurrent workers (and
// degradation handlers) share it freely. Summaries store per-site
// global values for exactly this set of the site's callee — the
// paper's sparse per-call-site candidate list — instead of a value per
// program global; summarize used to be O(sites × program-globals) in
// both time and heap.
type refTab struct {
	ctx *Context
	idx [][]int32
}

func newRefTab(ctx *Context, workers int) *refTab {
	rt := &refTab{ctx: ctx, idx: make([][]int32, len(ctx.CG.Reachable))}
	driver.Parallel(len(rt.idx), driver.Workers(workers), func(i int) {
		rt.idx[i] = refGlobalIdx(ctx, ctx.CG.Reachable[i])
	})
	return rt
}

// of returns the sorted global declaration indices of Ref(p).
func (rt *refTab) of(p *sem.Proc) []int32 { return rt.idx[rt.ctx.CG.Pos[p]] }

// refGlobalIdx computes one procedure's slice directly from the MOD/REF
// solution.
func refGlobalIdx(ctx *Context, p *sem.Proc) []int32 {
	var out []int32
	for v := range ctx.MR.Ref[p] {
		if v.IsGlobal() {
			out = append(out, int32(v.Index))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// summarize distills one scc run into the portable summary downstream
// consumers read. Raw (unfiltered) lattice values are stored; every
// consumer applies opts.filter itself, exactly as the non-incremental
// code path did when reading the scc.Result directly.
func summarize(ctx *Context, rt *refTab, p *sem.Proc, r *scc.Result, dead bool, nBack int, entry map[string]lattice.Elem) *incr.ProcSummary {
	globals := ctx.Prog.Sem.Globals
	calls := ctx.Prog.FuncOf[p].Calls
	sum := &incr.ProcSummary{
		Dead:      dead,
		BackEdges: nBack,
		Entry:     entry,
		Sites:     make([]incr.SiteValues, len(calls)),
	}
	// One backing array each for the per-site argument and global value
	// slices: the summary is immutable once built, so the sites can
	// share storage (capped subslices) instead of allocating per call.
	// GlobIdx aliases the run-wide refTab slices directly.
	nargs, nglob := 0, 0
	for _, call := range calls {
		if r.Reachable(call) {
			nargs += len(call.Args)
			nglob += len(rt.of(call.Callee))
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
			sv.GlobIdx = rt.of(call.Callee)
			ng := len(sv.GlobIdx)
			sv.GlobVals, globBacking = globBacking[:ng:ng], globBacking[ng:]
			for j, gi := range sv.GlobIdx {
				sv.GlobVals[j] = r.GlobalValueAtCall(call, globals[gi])
			}
		}
		sum.Sites[k] = sv
	}
	return sum
}

// mergeSiteValues installs one procedure's call-site values into the
// shared Result maps (ArgVals and the sparse global candidate maps).
// Must run single-threaded. Semantics match the former direct
// collection from scc.Result: unreachable sites contribute ⊤ argument
// values and empty global maps, as does any site of a dead procedure.
func (res *Result) mergeSiteValues(p *sem.Proc, sum *incr.ProcSummary) {
	ctx, opts := res.Ctx, res.Opts
	calls := ctx.Prog.FuncOf[p].Calls
	// Shared backing array for the per-site ArgVals slices; every
	// consumer reads GlobalCallVals/VisibleCallGlobals through len or
	// range, so empty candidate maps stay nil instead of allocating.
	nargs := 0
	for _, call := range calls {
		nargs += len(call.Args)
	}
	backing := make([]lattice.Elem, nargs)
	for k, call := range calls {
		sv := sum.Sites[k]
		na := len(call.Args)
		vals := backing[:na:na]
		backing = backing[na:]
		for i := range call.Args {
			if sv.Reachable {
				vals[i] = opts.filter(sv.Args[i])
			} else {
				vals[i] = lattice.TopElem()
			}
		}
		var gm, vm map[*sem.Var]val.Value
		if sv.Reachable && !sum.Dead {
			// The stored set is Ref(call.Callee) already, so no
			// membership filter is needed here.
			for j, gi := range sv.GlobIdx {
				gv := opts.filter(sv.GlobVals[j])
				if !gv.IsConst() {
					continue
				}
				g := ctx.Prog.Sem.Globals[gi]
				if gm == nil {
					gm = make(map[*sem.Var]val.Value)
				}
				gm[g] = gv.Val
				// VIS: the subset also visible in the calling
				// procedure (paper §4).
				if p.UsesSet[g] {
					if vm == nil {
						vm = make(map[*sem.Var]val.Value)
					}
					vm[g] = gv.Val
				}
			}
		}
		res.ArgVals[call] = vals
		res.GlobalCallVals[call] = gm
		res.VisibleCallGlobals[call] = vm
	}
}

// ssaPool supplies per-procedure SSA form. Slots are written only by
// the position's owning worker (or the prebuild pass); stage barriers
// provide the happens-before for cross-stage reads.
type ssaPool struct {
	ctx   *Context
	slots []*ssa.SSA
	built atomic.Int64
}

func newSSAPool(ctx *Context) *ssaPool {
	sp := &ssaPool{ctx: ctx, slots: make([]*ssa.SSA, len(ctx.CG.Reachable))}
	if len(ctx.SSACache) == len(sp.slots) {
		// Seed from the load-time prebuild (Context.SSAPrebuildShards):
		// the overlay is read-only during propagation, so sharing one
		// cache across analyses — including concurrent ones — is safe.
		copy(sp.slots, ctx.SSACache)
	}
	return sp
}

// prebuilt counts the slots already filled (by the load-time cache).
func (sp *ssaPool) prebuilt() int {
	n := 0
	for _, s := range sp.slots {
		if s != nil {
			n++
		}
	}
	return n
}

// prebuild constructs the SSA of the given positions concurrently (nil
// means all positions).
func (sp *ssaPool) prebuild(positions []int, workers int) {
	if positions == nil {
		positions = make([]int, len(sp.slots))
		for i := range positions {
			positions[i] = i
		}
	}
	driver.Parallel(len(positions), workers, func(k int) {
		i := positions[k]
		if sp.slots[i] != nil {
			return // seeded from the load-time SSA cache
		}
		sp.slots[i] = ssa.Build(sp.ctx.Prog.FuncOf[sp.ctx.CG.Reachable[i]])
		sp.built.Add(1)
	})
}

// get returns position i's SSA, building it on demand. Only the worker
// that owns position i may call this during a wavefront.
func (sp *ssaPool) get(i int) *ssa.SSA {
	if sp.slots[i] == nil {
		sp.slots[i] = ssa.Build(sp.ctx.Prog.FuncOf[sp.ctx.CG.Reachable[i]])
		sp.built.Add(1)
	}
	return sp.slots[i]
}
