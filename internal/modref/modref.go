// Package modref computes flow-insensitive interprocedural MOD and REF
// sets (Banning 1979; Cooper–Kennedy 1984): for every reachable
// procedure p, the set of formals of p and globals that executing p may
// modify (MOD) or reference (REF), including effects of everything p
// transitively calls. Reference-parameter may-aliases widen both sets.
//
// The results drive the rest of the pipeline:
//   - each ir.Func's global segment (ir.Func.AllVars) is installed
//     from REF ∪ MOD, so a procedure tracks only the globals it can use;
//   - ir.CallInstr.MayDef is filled from MOD, making interprocedural
//     kills visible to the SSA-based intraprocedural propagator;
//   - the flow-insensitive ICP uses MOD to validate pass-through
//     formals and to discard modified globals;
//   - the flow-sensitive ICP uses REF to build the sparse per-call-site
//     global candidate lists (paper §3.2).
package modref

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"fsicp/internal/alias"
	"fsicp/internal/callgraph"
	"fsicp/internal/ir"
	"fsicp/internal/sem"
)

// Set is a set of variables (formals of one procedure and globals).
type Set map[*sem.Var]bool

// Has reports membership.
func (s Set) Has(v *sem.Var) bool { return s[v] }

// Add inserts v, reporting whether it was new.
func (s Set) Add(v *sem.Var) bool {
	if s[v] {
		return false
	}
	s[v] = true
	return true
}

// Sorted returns the members in a stable order.
func (s Set) Sorted() []*sem.Var {
	out := make([]*sem.Var, 0, len(s))
	for v := range s {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind > out[j].Kind // globals after formals
		}
		if out[i].Index != out[j].Index {
			return out[i].Index < out[j].Index
		}
		return out[i].String() < out[j].String()
	})
	return out
}

// Info holds the MOD/REF solution.
type Info struct {
	// Mod[p] and Ref[p] are the interprocedural (transitive) sets.
	Mod map[*sem.Proc]Set
	Ref map[*sem.Proc]Set
	// DMod[p] and DRef[p] are the immediate (intraprocedural) sets.
	DMod map[*sem.Proc]Set
	DRef map[*sem.Proc]Set
}

// Compute runs the MOD/REF fixpoint over the reachable PCG, fills
// ir.CallInstr.MayDef for every reachable call site, and installs every
// function's global segment. Serial convenience wrapper over Begin /
// CollectProc / Finish.
func Compute(prog *ir.Program, cg *callgraph.Graph, al *alias.Info) *Info {
	b := Begin(prog, cg, al)
	for i := 0; i < b.NumProcs(); i++ {
		b.CollectProc(i)
	}
	return b.Finish()
}

// A Builder splits Compute so the per-procedure immediate MOD/REF
// collection — a pure walk over one function's IR — can be fanned
// across goroutines, while the interprocedural fixpoint stays a serial
// epilogue (it iterates shared per-procedure sets over call edges to
// convergence, which has no per-procedure decomposition).
type Builder struct {
	prog *ir.Program
	cg   *callgraph.Graph
	al   *alias.Info
	dmod []Set // indexed by reachable position; written by CollectProc
	dref []Set
}

// Begin prepares the sharded MOD/REF computation.
func Begin(prog *ir.Program, cg *callgraph.Graph, al *alias.Info) *Builder {
	return &Builder{
		prog: prog,
		cg:   cg,
		al:   al,
		dmod: make([]Set, len(cg.Reachable)),
		dref: make([]Set, len(cg.Reachable)),
	}
}

// NumProcs returns the number of reachable procedures to collect.
func (b *Builder) NumProcs() int { return len(b.cg.Reachable) }

// CollectProc collects the immediate MOD/REF of the i-th reachable
// procedure. Safe to call concurrently for distinct i.
func (b *Builder) CollectProc(i int) {
	b.dmod[i], b.dref[i] = immediate(b.prog.FuncOf[b.cg.Reachable[i]])
}

// Finish installs the collected immediate sets and runs the serial
// interprocedural fixpoint, the MayDef fill, and the global-segment
// installation.
func (b *Builder) Finish() *Info {
	prog, cg, al := b.prog, b.cg, b.al
	info := &Info{
		Mod:  make(map[*sem.Proc]Set),
		Ref:  make(map[*sem.Proc]Set),
		DMod: make(map[*sem.Proc]Set),
		DRef: make(map[*sem.Proc]Set),
	}
	for i, p := range cg.Reachable {
		dm, dr := b.dmod[i], b.dref[i]
		info.DMod[p], info.DRef[p] = dm, dr
		info.Mod[p] = copySet(dm)
		info.Ref[p] = copySet(dr)
	}

	// Worklist fixpoint over call edges, with alias closure folded in.
	// Effects flow callee→caller, so a procedure's incoming edges (as
	// callee) need reprocessing only after its own set grew; everything
	// starts dirty to seed the alias closure of the immediate sets. The
	// PCG may be cyclic; termination holds because sets only grow within
	// the finite domain formals(p) ∪ globals. Compared to the former
	// repeat-all-edges sweep this is the classic worklist form — on a
	// 10k-procedure corpus with deep call chains, the sweep reprocessed
	// every edge once per chain level, which turned the front end's
	// MOD/REF pass quadratic.
	index := make(map[*sem.Proc]int, len(cg.Reachable))
	for i, p := range cg.Reachable {
		index[p] = i
	}
	intoCaller := make([][]int, len(cg.Reachable)) // callee index → edge indices
	for ei, e := range cg.Edges {
		ci := index[e.Callee]
		intoCaller[ci] = append(intoCaller[ci], ei)
	}
	queued := make([]bool, len(cg.Reachable))
	queue := make([]int, 0, len(cg.Reachable))
	enqueue := func(i int) {
		if !queued[i] {
			queued[i] = true
			queue = append(queue, i)
		}
	}
	for i := range cg.Reachable {
		enqueue(i)
	}
	for len(queue) > 0 {
		i := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		queued[i] = false
		p := cg.Reachable[i]
		if al != nil {
			closeUnderAliases(info.Mod[p], al, p)
			closeUnderAliases(info.Ref[p], al, p)
		}
		for _, ei := range intoCaller[i] {
			e := cg.Edges[ei]
			changed := propagate(info.Mod, e.Caller, e.Callee, e.Site)
			if propagate(info.Ref, e.Caller, e.Callee, e.Site) {
				changed = true
			}
			if changed {
				enqueue(index[e.Caller])
			}
		}
	}

	fillMayDef(prog, cg, al, info)
	b.installGlobals(info)
	return info
}

// installGlobals sets each reachable function's global segment to
// (REF*(p) ∪ MOD*(p) ∪ by-reference global actuals) ∩ globals, in
// declaration order: every global p's IR names, since MayDef and
// clobbers are MOD closed under aliases and a by-reference actual is a
// call operand even when the callee ignores the formal. A procedure
// unreachable from main has no MOD/REF solution and tracks every global.
func (b *Builder) installGlobals(info *Info) {
	mark := make([]bool, len(b.prog.Sem.Globals))
	var gs []*sem.Var
	add := func(vs ...*sem.Var) {
		for _, v := range vs {
			if v != nil && v.IsGlobal() && !mark[v.Index] {
				mark[v.Index] = true
				gs = append(gs, v)
			}
		}
	}
	for _, fn := range b.prog.Funcs {
		p := fn.Proc
		if !b.cg.IsReachable(p) {
			fn.SetGlobals(b.prog.Sem.Globals)
			continue
		}
		for v := range info.Ref[p] {
			add(v)
		}
		for v := range info.Mod[p] {
			add(v)
		}
		for _, call := range fn.Calls {
			add(call.ByRef...)
		}
		slices.SortFunc(gs, func(x, y *sem.Var) int { return x.Index - y.Index })
		for _, g := range gs {
			mark[g.Index] = false
		}
		fn.SetGlobals(gs)
		gs = gs[:0]
	}
}

func copySet(s Set) Set {
	out := make(Set, len(s))
	for v := range s {
		out[v] = true
	}
	return out
}

// immediate collects the direct MOD/REF of one procedure from its IR.
// Call-site argument uses are excluded here: by-value actuals are
// temporaries whose computation already referenced the underlying
// variables, and by-ref actuals only count as referenced/modified when
// the callee's formal is (handled by the fixpoint).
func immediate(fn *ir.Func) (dmod, dref Set) {
	dmod, dref = make(Set), make(Set)
	track := func(v *sem.Var) bool {
		return v.Kind == sem.KindFormal || v.Kind == sem.KindGlobal
	}
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if call, ok := in.(*ir.CallInstr); ok {
				if call.Dst != nil && track(call.Dst) {
					dmod[call.Dst] = true
				}
				continue
			}
			for _, v := range in.Defs() {
				if track(v) {
					dmod[v] = true
				}
			}
			for _, v := range in.Uses() {
				if track(v) {
					dref[v] = true
				}
			}
		}
		if b.Term != nil {
			for _, v := range b.Term.Uses() {
				if track(v) {
					dref[v] = true
				}
			}
		}
	}
	return dmod, dref
}

// propagate maps callee effects back through one call edge: globals
// carry over directly; formal effects carry to by-ref actuals that are
// formals or globals of the caller.
func propagate(sets map[*sem.Proc]Set, caller, callee *sem.Proc, call *ir.CallInstr) bool {
	changed := false
	cs, ps := sets[callee], sets[caller]
	for v := range cs {
		if v.IsGlobal() {
			if ps.Add(v) {
				changed = true
			}
			continue
		}
		if v.Kind == sem.KindFormal && v.Owner == callee && v.Index < len(call.ByRef) {
			if a := call.ByRef[v.Index]; a != nil {
				if a.Kind == sem.KindFormal || a.IsGlobal() {
					if ps.Add(a) {
						changed = true
					}
				}
			}
		}
	}
	return changed
}

func closeUnderAliases(s Set, al *alias.Info, p *sem.Proc) bool {
	changed := false
	var queue []*sem.Var
	for v := range s {
		queue = append(queue, v)
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, w := range al.Partners(p, v) {
			if s.Add(w) {
				changed = true
				queue = append(queue, w)
			}
		}
	}
	return changed
}

// fillMayDef records, on every reachable call instruction, the caller
// variables the call may modify: by-ref actuals bound to modified
// formals, modified globals, and the alias partners of both.
func fillMayDef(prog *ir.Program, cg *callgraph.Graph, al *alias.Info, info *Info) {
	for _, e := range cg.Edges {
		call, callee, caller := e.Site, e.Callee, e.Caller
		seen := make(map[*sem.Var]bool)
		var out []*sem.Var
		add := func(v *sem.Var) {
			if v == nil || seen[v] || v == call.Dst {
				return
			}
			seen[v] = true
			out = append(out, v)
		}
		for i, a := range call.ByRef {
			if a == nil || i >= len(callee.Params) {
				continue
			}
			if info.Mod[callee].Has(callee.Params[i]) {
				add(a)
				if al != nil {
					for _, w := range al.Partners(caller, a) {
						add(w)
					}
				}
			}
		}
		for v := range info.Mod[callee] {
			if v.IsGlobal() {
				add(v)
				if al != nil {
					for _, w := range al.Partners(caller, v) {
						add(w)
					}
				}
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
		call.MayDef = out
	}
}

// Dump renders MOD/REF for debugging and golden tests.
func (i *Info) Dump(cg *callgraph.Graph) string {
	var b strings.Builder
	for _, p := range cg.Reachable {
		fmt.Fprintf(&b, "%s: MOD={%s} REF={%s}\n", p.Name, names(i.Mod[p]), names(i.Ref[p]))
	}
	return b.String()
}

func names(s Set) string {
	vs := s.Sorted()
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = v.Name
	}
	return strings.Join(parts, ",")
}
