package transform

import (
	"context"
	"fmt"

	"fsicp/internal/callgraph"
	"fsicp/internal/driver"
	"fsicp/internal/icp"
	"fsicp/internal/ir"
	"fsicp/internal/lattice"
	"fsicp/internal/sem"
	"fsicp/internal/ssa"
)

// Pass names accepted by Options.Passes, in execution order.
const (
	PassFold     = "fold"     // constant folding + dead-branch deletion
	PassCopyProp = "copyprop" // copy propagation
	PassDSE      = "dse"      // dead-store elimination
	PassCSE      = "cse"      // local CSE over the dominator tree
	PassLICM     = "licm"     // loop-invariant constant hoisting
)

// AllPasses returns every pass name in execution order.
func AllPasses() []string {
	return []string{PassFold, PassCopyProp, PassDSE, PassCSE, PassLICM}
}

// Options configures an Optimize run.
type Options struct {
	// Passes selects the passes to run, in any order and with
	// duplicates ignored; execution order is always AllPasses order.
	// Nil or empty means all passes.
	Passes []string
	// Workers bounds the per-function shard fan-out (0 = GOMAXPROCS).
	Workers int
	// Trace, when non-nil, collects the per-pass PassStats alongside
	// any earlier load/analysis passes it already holds.
	Trace *driver.Trace
}

// selectPasses normalises Passes to canonical order, rejecting unknown
// names.
func selectPasses(names []string) ([]string, error) {
	if len(names) == 0 {
		return AllPasses(), nil
	}
	want := make(map[string]bool, len(names))
	for _, n := range names {
		switch n {
		case PassFold, PassCopyProp, PassDSE, PassCSE, PassLICM:
			want[n] = true
		default:
			return nil, fmt.Errorf("transform: unknown pass %q", n)
		}
	}
	var out []string
	for _, n := range AllPasses() {
		if want[n] {
			out = append(out, n)
		}
	}
	return out, nil
}

// optState is the shared mutable state of one Optimize run: the
// per-function SSA overlays the passes compose on, edited in place.
// ssas[i] is nil when function i's overlay must be (re)built — when the
// analysis built none, and again after fold changed its CFG. built[i]
// counts the overlays function i's shard built in the current pass.
// counts[i] is nil until a pass reads function i's defCounts.
type optState struct {
	ctx    *icp.Context
	fns    []*ir.Func
	envs   []lattice.Env[*sem.Var]
	ssas   []*ssa.SSA
	built  []int
	counts [][]int
}

// overlay returns function i's current SSA overlay, building it on
// demand. Each function is owned by exactly one shard per pass, so
// there is no locking.
func (st *optState) overlay(i int) *ssa.SSA {
	if st.ssas[i] == nil {
		st.ssas[i] = ssa.Build(st.fns[i])
		st.built[i]++
	}
	return st.ssas[i]
}

// Optimize runs the selected optimization passes over every reachable
// procedure, scheduled through the driver pass manager with one shard
// per function, and returns the totals plus per-pass breakdown. The
// rewritten program produces byte-identical interpreter output; the
// result is independent of Workers.
//
// Optimize is destructive: it rewrites ctx.Prog in place, then
// refreshes ctx (see refreshContext), so incremental sessions and later
// analyses observe the transformed program.
func Optimize(ctx *icp.Context, env EnvFn, opts Options) (Report, error) {
	passes, err := selectPasses(opts.Passes)
	if err != nil {
		return Report{}, err
	}

	st := &optState{
		ctx:    ctx,
		fns:    make([]*ir.Func, len(ctx.CG.Reachable)),
		envs:   make([]lattice.Env[*sem.Var], len(ctx.CG.Reachable)),
		ssas:   make([]*ssa.SSA, len(ctx.CG.Reachable)),
		built:  make([]int, len(ctx.CG.Reachable)),
		counts: make([][]int, len(ctx.CG.Reachable)),
	}
	for i, p := range ctx.CG.Reachable {
		st.fns[i] = ctx.Prog.FuncOf[p]
		st.envs[i] = env(p)
	}
	// Seed the overlays from the SSA the analyses already built, then
	// drop the cache immediately: the passes edit the overlays in
	// place, so nothing else may read them from here on, a
	// Result.Intra fixpoint over one included.
	if ctx.SSACache != nil {
		copy(st.ssas, ctx.SSACache)
		ctx.InvalidateSSA()
	}

	var rep Report
	m := driver.NewManager()
	m.SetWorkers(opts.Workers)
	for _, name := range passes {
		name := name
		run := st.shardFn(name)
		shardReps := make([]PassReport, len(st.fns))
		m.Add(driver.Pass{
			Name: "opt-" + name,
			Shards: func(workers int) (int, func(int)) {
				return len(st.fns), func(i int) { shardReps[i] = run(i) }
			},
			Finish: func(ps *driver.PassStats) error {
				// Shard reports and overlay builds are summed in
				// function index order, so the report and the notes
				// (like the rewrites themselves) are identical for
				// every worker count.
				pr := PassReport{Pass: name}
				built := 0
				for i, sr := range shardReps {
					pr.Counts.add(sr.Counts)
					built += st.built[i]
					st.built[i] = 0
				}
				rep.addPass(pr)
				ps.Procs = len(st.fns)
				ps.Notes = fmt.Sprintf("%s ssa=%d", pr.notes(), built)
				return nil
			},
		})
	}
	m.Add(driver.Pass{
		Name: "opt-finish",
		Run: func(ps *driver.PassStats) error {
			refreshContext(ctx)
			ps.Procs = len(st.fns)
			ps.Notes = fmt.Sprintf("%d instrs eliminated, %d branches",
				rep.EliminatedInstrs(), rep.FoldedBranches)
			return nil
		},
	})

	if err := m.Run(context.TODO(), opts.Trace); err != nil {
		// Leave the program consistent even on failure (passes run in
		// order, so every earlier pass completed whole-program).
		refreshContext(ctx)
		return Report{}, err
	}
	return rep, nil
}

// refreshContext makes ctx describe its rewritten program: it
// renumbers instructions, rebuilds call lists and resets fingerprints
// (ir.RebuildCallLists), rebuilds the call graph, since a deleted call
// can leave a procedure unreachable, and drops the SSA built for the
// old code. The alias pairs and MOD/REF sets are kept: the rewrites
// only delete code or store a value the variable already holds, so the
// old facts remain sound over-approximations. Recomputing them would
// also rewrite the call sites' may-def lists.
func refreshContext(ctx *icp.Context) {
	ir.RebuildCallLists(ctx.Prog)
	ctx.CG = callgraph.Build(ctx.Prog)
	ctx.InvalidateSSA()
}

// shardFn returns the per-function worker for one pass.
func (st *optState) shardFn(name string) func(i int) PassReport {
	switch name {
	case PassFold:
		return st.foldFunc
	case PassCopyProp:
		return st.copyPropFunc
	case PassDSE:
		return st.dseFunc
	case PassCSE:
		return st.cseFunc
	case PassLICM:
		return st.licmFunc
	}
	panic("transform: unknown pass " + name)
}

// defCounts returns function i's countDefs, counted by the first pass
// that reads them. Fold, the one pass that adds real definitions (the
// graft) or rebuilds an overlay, runs before any such pass; DSE keeps
// the counts current, and CSE and LICM change none.
func (st *optState) defCounts(i int) []int {
	if st.counts[i] == nil {
		st.counts[i] = countDefs(st.overlay(i))
	}
	return st.counts[i]
}

// countDefs returns, per AllVars position, the number of real
// definitions (instructions, call may-defs, clobbers) of that variable.
// Stores dead-store elimination deleted are gone and not counted. φ
// definitions are construction artifacts, not runtime writes, and are
// not counted either: the overlay's non-pruned placement puts a header φ on
// every loop-defined variable, so counting them would make "exactly one
// definition" unsatisfiable for anything assigned inside a loop. The
// copy-propagation, CSE, and LICM validity conditions all key on
// "exactly one real definition" — a single-store variable holds that
// store's value at every program point the store dominates, φs or not.
func countDefs(s *ssa.SSA) []int {
	nd := make([]int, len(s.Fn.AllVars))
	for _, d := range s.Defs {
		if d.Kind == ssa.DefInstr {
			nd[d.Var]++
		}
	}
	return nd
}
