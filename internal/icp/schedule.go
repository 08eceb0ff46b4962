package icp

import (
	"fsicp/internal/callgraph"
	"fsicp/internal/driver"
	"fsicp/internal/incr"
	"fsicp/internal/lattice"
	"fsicp/internal/sem"
)

// This file holds the wavefront-scheduling substrate shared by the
// flow-sensitive methods. The PCG's forward edges form a DAG (a forward
// edge strictly increases the topological position), so the reachable
// procedures condense into topological levels; procedures of one level
// have no forward edges between them and can be analysed concurrently
// once every earlier level has completed. Back edges never constrain
// the schedule — they read the precomputed flow-insensitive fallback
// (one-pass method) or the previous round's results (iterative method),
// which is exactly what the serial traversals read, so the parallel
// schedule is semantics-preserving and deterministic for any worker
// count.

// forwardLevels condenses the PCG forward-edge DAG into topological
// levels for the forward traversals: a procedure's dependencies are its
// forward-edge callers.
func forwardLevels(cg *callgraph.Graph) [][]int {
	return driver.Levels(len(cg.Reachable), func(i int) []int {
		var deps []int
		for _, e := range cg.In[cg.Reachable[i]] {
			if !cg.IsBackEdge(e) {
				deps = append(deps, cg.Pos[e.Caller])
			}
		}
		return deps
	})
}

// reverseLevels condenses the same DAG for the reverse traversals
// (return constants): a procedure's dependencies are its forward-edge
// callees.
func reverseLevels(cg *callgraph.Graph) [][]int {
	return driver.Levels(len(cg.Reachable), func(i int) []int {
		var deps []int
		for _, e := range cg.Out[cg.Reachable[i]] {
			if !cg.IsBackEdge(e) {
				deps = append(deps, cg.Pos[e.Callee])
			}
		}
		return deps
	})
}

// callerSummary looks up the latest summary of a call edge's caller.
// The slice-of-slots representation (indexed by PCG position, each
// slot written only by its owning procedure's worker) is what makes
// the wavefront race-free without locks. A nil summary means the
// caller has not been analysed yet (iterative optimism).
type callerSummary func(q *sem.Proc) *incr.ProcSummary

// entryEnv builds p's entry environment by meeting the contributions of
// every incoming call edge: forward edges read the caller's completed
// summary via caller; back edges read the flow-insensitive fallback fi
// (nil when the PCG is acyclic — then no back edges exist). A call
// instruction's SiteIdx is its index in the caller's summary Sites.
// The environment binds only p's formals and REF*(p) globals, which
// lie in p's global segment, and is presized to formals plus segment.
// Returns the environment, whether any incoming site is executable, and
// how many back edges were consulted. Meet is commutative and
// associative, so the result is independent of edge order.
func entryEnv(ctx *Context, opts Options, p *sem.Proc, caller callerSummary, fi *fiSolution) (env lattice.Env[*sem.Var], live bool, backEdges int) {
	cg, mr := ctx.CG, ctx.MR
	globals := ctx.Prog.Sem.Globals
	if p == cg.Reachable[0] {
		// Block-data initial constants seed the entry of main.
		env = make(lattice.Env[*sem.Var])
		for g, v := range ctx.Prog.Sem.GlobalInit {
			env[g] = opts.filter(lattice.Const(v))
		}
		return env, true, 0
	}
	env = make(lattice.Env[*sem.Var], len(p.Params)+len(ctx.Prog.FuncOf[p].Globals()))
	nExec := 0
	for _, e := range cg.In[p] {
		if !cg.IsBackEdge(e) {
			// Forward edge: the caller has been analysed.
			sum := caller(e.Caller)
			if sum == nil || sum.Dead {
				continue // dead caller: contributes ⊤
			}
			sv := sum.Sites[e.Site.SiteIdx]
			if !sv.Reachable {
				continue // unreachable call site: contributes ⊤
			}
			nExec++
			for i, f := range p.Params {
				if i >= len(e.Site.Args) {
					break
				}
				env.MeetInto(f, opts.filter(sv.Args[i]))
			}
			// Sparse global candidates: the site stores values for
			// exactly Ref(p) — the globals the callee (transitively)
			// references, all in its segment — so the stored pairs
			// are iterated directly.
			for j, gi := range sv.GlobIdx {
				env.MeetInto(globals[gi], opts.filter(sv.GlobVals[j]))
			}
		} else {
			// Back edge: use the flow-insensitive solution.
			backEdges++
			nExec++
			for i, f := range p.Params {
				env.MeetInto(f, fi.EdgeArg(e.Site, i))
			}
			for g := range mr.Ref[p] {
				if g.IsGlobal() {
					env.MeetInto(g, fi.GlobalElem(g))
				}
			}
		}
	}
	if nExec == 0 {
		// Statically reachable but no executable call site: the
		// procedure is dynamically dead under this solution.
		return make(lattice.Env[*sem.Var]), false, backEdges
	}
	demoteTop(env)
	return env, true, backEdges
}

// demoteTop lowers every residual ⊤ of an entry environment to ⊥: a ⊤
// would claim "never receives a value", so the demotion keeps the
// environment sound.
func demoteTop(env lattice.Env[*sem.Var]) {
	for v, e := range env {
		if e.IsTop() {
			env[v] = lattice.BottomElem()
		}
	}
}
