// Package modref computes flow-insensitive interprocedural MOD and REF
// sets (Banning 1979): for every reachable procedure p, the formals of
// p and the globals that executing p may modify (MOD) or reference
// (REF), including effects of everything p transitively calls.
// Reference-parameter may-aliases widen both sets.
//
// The sets are dense bit rows solved in one callee-first pass over the
// call graph's strongly connected components, after Cooper and
// Kennedy, "Interprocedural Side-Effect Analysis in Linear Time" (PLDI
// 1988): a procedure outside any cycle is computed once from its
// callees' finished rows, and only a cyclic component iterates.
//
// The results drive the rest of the pipeline:
//   - each ir.Func's global segment (ir.Func.AllVars) is installed
//     from REF ∪ MOD, so a procedure tracks only the globals it can use;
//   - ir.CallInstr.MayDef is filled from MOD, making interprocedural
//     kills visible to the SSA-based intraprocedural propagator;
//   - the flow-insensitive ICP uses MOD to validate pass-through
//     formals and to discard modified globals;
//   - the flow-sensitive ICP uses REF to build the sparse per-call-site
//     global candidate lists (paper §3.2), read through RefGlobals.
package modref

import (
	"fmt"
	"slices"
	"strings"

	"fsicp/internal/alias"
	"fsicp/internal/bitset"
	"fsicp/internal/callgraph"
	"fsicp/internal/ir"
	"fsicp/internal/sem"
)

// Row is one procedure's MOD, REF, DMOD or DREF set. Bit g is the
// global with declaration index g; the formal part starts at the first
// word boundary after the globals, and holds the procedure's formals by
// position. A procedure without a solution (unreachable from main, or
// created after Compute) has an empty row.
type Row struct {
	bits bitset.Set
	info *Info
	p    *sem.Proc
}

// Has reports whether v, a global or a formal of the row's procedure,
// is in the set.
func (r Row) Has(v *sem.Var) bool {
	switch {
	case v.IsGlobal():
		return r.bits.Has(v.Index)
	case v.Kind == sem.KindFormal && v.Owner == r.p:
		return r.bits.Has(r.info.fbase + v.Index)
	}
	return false
}

// Len returns the number of members.
func (r Row) Len() int { return r.bits.Count() }

// Vars returns the members: globals in declaration order, then formals
// by position.
func (r Row) Vars() []*sem.Var {
	var out []*sem.Var
	for b := r.bits.Next(0); b >= 0; b = r.bits.Next(b + 1) {
		if b < r.info.fbase {
			out = append(out, r.info.globals[b])
		} else {
			out = append(out, r.p.Params[b-r.info.fbase])
		}
	}
	return out
}

// Info holds the MOD/REF solution, indexed by sem.Proc.Index: the call
// graph is rebuilt after every rewrite (its positions move), while the
// solution is kept.
type Info struct {
	globals []*sem.Var
	// fbase is the first formal bit of every row: the global part
	// rounded up to whole words, so the solve ORs global parts word by
	// word.
	fbase int
	procs []procRows
	// Work counts the solve's work, for the modref pass's notes.
	Work Work
}

// procRows is one procedure's four rows, views into one backing array
// shared by every procedure, and its REF globals as a list.
type procRows struct {
	p                    *sem.Proc
	dmod, dref, mod, ref bitset.Set
	refGlobals           []int32
}

// noRows answers procedures without a solution.
var noRows procRows

// Work is the solve's work: cyclic SCCs, the extra rounds they
// iterated past their first, and row unions (a callee's global part
// ORed into a caller's row). Unions are twice the call edges outside
// cycles plus twice the cyclic edges per round.
type Work struct{ SCCs, Rounds, Unions int }

func (w Work) String() string {
	return fmt.Sprintf("sccs=%d rounds=%d unions=%d", w.SCCs, w.Rounds, w.Unions)
}

func (i *Info) rows(p *sem.Proc) *procRows {
	if p.Index < len(i.procs) && i.procs[p.Index].p == p {
		return &i.procs[p.Index]
	}
	return &noRows
}

// Mod returns MOD(p), the interprocedural (transitive) modified set.
func (i *Info) Mod(p *sem.Proc) Row { return Row{i.rows(p).mod, i, p} }

// Ref returns REF(p), the interprocedural referenced set.
func (i *Info) Ref(p *sem.Proc) Row { return Row{i.rows(p).ref, i, p} }

// DMod returns DMOD(p), the immediate (intraprocedural) modified set.
func (i *Info) DMod(p *sem.Proc) Row { return Row{i.rows(p).dmod, i, p} }

// DRef returns DREF(p), the immediate referenced set.
func (i *Info) DRef(p *sem.Proc) Row { return Row{i.rows(p).dref, i, p} }

// RefGlobals returns the declaration indices of the globals in REF(p),
// ascending. Built once per solution and shared: callers must not
// modify it. It is the layout of the global values a summary records
// at a call of p, so it is also part of every caller's procedure key.
func (i *Info) RefGlobals(p *sem.Proc) []int32 { return i.rows(p).refGlobals }

// Renumber moves every kept procedure's rows to its current Index,
// after a pass deleted procedures and renumbered the rest so that
// procs[k].Index == k. Deleted procedures lose their rows.
func (i *Info) Renumber(procs []*sem.Proc) {
	out := make([]procRows, len(procs))
	for _, r := range i.procs {
		if r.p != nil && r.p.Index < len(procs) && procs[r.p.Index] == r.p {
			out[r.p.Index] = r
		}
	}
	i.procs = out
}

// Compute runs the MOD/REF solve over the reachable PCG, fills
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
// collection — a pure walk over one function's IR into that
// procedure's own rows — can be fanned across goroutines, while the
// interprocedural solve stays a serial epilogue (callee rows must be
// final before their callers read them).
type Builder struct {
	prog *ir.Program
	cg   *callgraph.Graph
	al   *alias.Info
	info *Info
}

// Begin prepares the sharded MOD/REF computation: it lays out every
// reachable procedure's four rows in one backing array.
func Begin(prog *ir.Program, cg *callgraph.Graph, al *alias.Info) *Builder {
	globals := prog.Sem.Globals
	gw := (len(globals) + 63) / 64
	words := 0
	for _, p := range cg.Reachable {
		words += 4 * (gw + (len(p.Params)+63)/64)
	}
	info := &Info{globals: globals, fbase: 64 * gw, procs: make([]procRows, len(prog.Sem.Procs))}
	backing := make(bitset.Set, words)
	row := func(w int) bitset.Set {
		r := backing[:w:w]
		backing = backing[w:]
		return r
	}
	for _, p := range cg.Reachable {
		w := gw + (len(p.Params)+63)/64
		info.procs[p.Index] = procRows{p: p, dmod: row(w), dref: row(w), mod: row(w), ref: row(w)}
	}
	return &Builder{prog: prog, cg: cg, al: al, info: info}
}

// NumProcs returns the number of reachable procedures to collect.
func (b *Builder) NumProcs() int { return len(b.cg.Reachable) }

// CollectProc collects the immediate MOD/REF of the i-th reachable
// procedure. Safe to call concurrently for distinct i: each writes only
// its own rows, which share no word with another procedure's.
func (b *Builder) CollectProc(i int) {
	p := b.cg.Reachable[i]
	r := &b.info.procs[p.Index]
	b.info.immediate(b.prog.FuncOf[p], r.dmod, r.dref)
}

// Finish runs the serial interprocedural solve over the collected
// immediate rows, then the MayDef fill, the global-segment
// installation, the exit slots, which read both, and the REF-global
// lists.
func (b *Builder) Finish() *Info {
	b.solve()
	b.fillMayDef()
	b.installGlobals()
	b.info.FillExitSlots(b.prog, b.cg)
	b.refLists()
	return b.info
}

// bit returns v's position in its owner's rows, or -1 for a variable
// no row holds (a local or temporary).
func (i *Info) bit(v *sem.Var) int {
	switch v.Kind {
	case sem.KindGlobal:
		return v.Index
	case sem.KindFormal:
		return i.fbase + v.Index
	}
	return -1
}

// solve visits the PCG's SCCs callees first (callgraph.Graph.SCCs is in
// reverse topological order), so every callee outside the current
// component already holds its final rows. A procedure outside any cycle
// is computed once: its immediate rows, its callees' global parts, and
// the caller variables bound by reference to its callees' MOD and REF
// formals, closed under its alias pairs. A cyclic component repeats
// that over its members until no row grows; the rows only grow within
// the finite domain formals ∪ globals, so it terminates, and every step
// is monotone, so the result is the equations' least solution whatever
// the order of the members.
func (b *Builder) solve() {
	info, cg := b.info, b.cg
	pairs := b.aliasBits()
	w := &info.Work
	for _, comp := range cg.SCCs {
		for _, p := range comp {
			r := info.rows(p)
			copy(r.mod, r.dmod)
			copy(r.ref, r.dref)
		}
		if len(comp) == 1 && !selfCall(cg, comp[0]) {
			b.gather(comp[0], pairs[comp[0].Index])
			continue
		}
		w.SCCs++
		for round := 0; ; round++ {
			grew := false
			for _, p := range comp {
				if b.gather(p, pairs[p.Index]) {
					grew = true
				}
			}
			if !grew {
				w.Rounds += round
				break
			}
		}
	}
}

func selfCall(cg *callgraph.Graph, p *sem.Proc) bool {
	for _, e := range cg.Out[cg.PosOf(p)] {
		if e.Callee == p {
			return true
		}
	}
	return false
}

// gather ORs p's callees' effects into MOD(p) and REF(p) and closes
// both under p's alias pairs, reporting whether either grew.
func (b *Builder) gather(p *sem.Proc, pairs [][2]int) bool {
	info := b.info
	r := info.rows(p)
	gw := info.fbase / 64
	grew := false
	for _, e := range b.cg.Out[b.cg.PosOf(p)] {
		call, q := e.Site, info.rows(e.Callee)
		if r.mod[:gw].Or(q.mod[:gw]) {
			grew = true
		}
		if r.ref[:gw].Or(q.ref[:gw]) {
			grew = true
		}
		info.Work.Unions += 2
		for k, a := range call.ByRef {
			if a == nil || k >= len(e.Callee.Params) {
				continue
			}
			ab := info.bit(a)
			if ab < 0 {
				continue
			}
			if q.mod.Has(info.fbase+k) && r.mod.Add(ab) {
				grew = true
			}
			if q.ref.Has(info.fbase+k) && r.ref.Add(ab) {
				grew = true
			}
		}
	}
	if closeAliases(r.mod, pairs) {
		grew = true
	}
	if closeAliases(r.ref, pairs) {
		grew = true
	}
	return grew
}

// aliasBits returns, per procedure index, the procedure's alias pairs
// as row positions. Partners are formals of the procedure or globals,
// so both ends lie in its rows.
func (b *Builder) aliasBits() [][][2]int {
	out := make([][][2]int, len(b.info.procs))
	if b.al == nil {
		return out
	}
	for _, p := range b.cg.Reachable {
		for pr := range b.al.PairsOf[p] {
			out[p.Index] = append(out[p.Index], [2]int{b.info.bit(pr.A), b.info.bit(pr.B)})
		}
	}
	return out
}

// closeAliases adds to row every alias partner of a member, to the
// closure, reporting whether the row grew. The result is independent of
// the pairs' order.
func closeAliases(row bitset.Set, pairs [][2]int) bool {
	changed := false
	for again := len(pairs) > 0; again; {
		again = false
		for _, pr := range pairs {
			if row.Has(pr[0]) != row.Has(pr[1]) {
				row.Add(pr[0])
				row.Add(pr[1])
				again, changed = true, true
			}
		}
	}
	return changed
}

// immediate collects the direct MOD/REF of one procedure from its IR
// into its DMOD and DREF rows. Call-site argument uses are excluded
// here: by-value actuals are temporaries whose computation already
// referenced the underlying variables, and by-ref actuals only count as
// referenced/modified when the callee's formal is (handled by the
// solve). The common instructions are matched by type, so the walk
// allocates nothing.
func (i *Info) immediate(fn *ir.Func, dmod, dref bitset.Set) {
	def := func(v *sem.Var) {
		if b := i.bit(v); b >= 0 {
			dmod.Add(b)
		}
	}
	use := func(v *sem.Var) {
		if b := i.bit(v); b >= 0 {
			dref.Add(b)
		}
	}
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			switch in := in.(type) {
			case *ir.CallInstr:
				if in.Dst != nil {
					def(in.Dst)
				}
			case *ir.ConstInstr:
				def(in.Dst)
			case *ir.CopyInstr:
				def(in.Dst)
				use(in.Src)
			case *ir.UnaryInstr:
				def(in.Dst)
				use(in.X)
			case *ir.BinaryInstr:
				def(in.Dst)
				use(in.X)
				use(in.Y)
			case *ir.ReadInstr:
				def(in.Dst)
			case *ir.PrintInstr:
				for _, a := range in.Args {
					if a.Var != nil {
						use(a.Var)
					}
				}
			default:
				for _, v := range in.Defs() {
					def(v)
				}
				for _, v := range in.Uses() {
					use(v)
				}
			}
		}
		switch t := b.Term.(type) {
		case *ir.If:
			use(t.Cond)
		case *ir.Ret:
			if t.Val != nil {
				use(t.Val)
			}
		case nil:
		default:
			for _, v := range t.Uses() {
				use(v)
			}
		}
	}
}

// fillMayDef records, on every reachable call instruction, the caller
// variables the call may modify: by-ref actuals bound to modified
// formals, modified globals, and the alias partners of both, minus the
// call's own destination. Each list is in v.String() order — it is part
// of the procedure key and of the IR dump. A global's string is its
// name, so the globals come out of a name-ranked bit set in order; the
// few caller variables are merged in by the same comparison. Every list
// is carved from shared backing arrays that double as they fill.
func (b *Builder) fillMayDef() {
	info, al := b.info, b.al
	globals := info.globals
	byName := make([]int32, len(globals))
	for g := range byName {
		byName[g] = int32(g)
	}
	slices.SortFunc(byName, func(x, y int32) int { return strings.Compare(globals[x].Name, globals[y].Name) })
	rank := make([]int32, len(globals))
	for r, g := range byName {
		rank[g] = int32(r)
	}
	ranked := bitset.New(len(globals))
	var own, out, arena []*sem.Var
	for _, e := range b.cg.Edges {
		call, caller, q := e.Site, e.Caller, info.rows(e.Callee)
		aliased := al != nil && al.HasAliases(caller)
		own = own[:0]
		add := func(v *sem.Var) {
			switch {
			case v == call.Dst:
			case v.IsGlobal():
				ranked.Add(int(rank[v.Index]))
			case !slices.Contains(own, v):
				own = append(own, v)
			}
		}
		addWithPartners := func(v *sem.Var) {
			add(v)
			if aliased {
				for _, w := range al.Partners(caller, v) {
					add(w)
				}
			}
		}
		for k, a := range call.ByRef {
			if a != nil && k < len(e.Callee.Params) && q.mod.Has(info.fbase+k) {
				addWithPartners(a)
			}
		}
		for g := q.mod.Next(0); g >= 0 && g < info.fbase; g = q.mod.Next(g + 1) {
			addWithPartners(globals[g])
		}
		slices.SortFunc(own, cmpString)
		out = out[:0]
		j := 0
		for r := ranked.Next(0); r >= 0; r = ranked.Next(r + 1) {
			g := globals[byName[r]]
			for ; j < len(own) && cmpString(own[j], g) < 0; j++ {
				out = append(out, own[j])
			}
			out = append(out, g)
		}
		out = append(out, own[j:]...)
		ranked.Clear()
		call.MayDef = nil
		if n := len(out); n > 0 {
			if cap(arena)-len(arena) < n {
				arena = make([]*sem.Var, 0, max(n, 2*cap(arena), 64))
			}
			arena = append(arena, out...)
			call.MayDef = arena[len(arena)-n : len(arena) : len(arena)]
		}
	}
}

// FillExitSlots fills every reachable call's ir.CallInstr.ExitSlot
// from one row, indexed by global, per callee: its segment's slots.
// Only globals the callee modifies are read, and all lie in its
// segment, so no other callee's entry is read. Finish runs it once the
// segments are installed; a pass that moves a segment afterwards
// (ir.Func.SetGlobals) runs it again.
func (i *Info) FillExitSlots(prog *ir.Program, cg *callgraph.Graph) {
	n := 0
	for _, e := range cg.Edges {
		n += len(e.Site.MayDef)
	}
	backing := make([]int32, n)
	slot := make([]int32, len(i.globals))
	for pos, callee := range cg.Reachable {
		np, mod := len(callee.Params), i.rows(callee).mod
		for k, g := range prog.FuncOf[callee].Globals() {
			slot[g.Index] = int32(np + k)
		}
		for _, e := range cg.In[pos] {
			nd := len(e.Site.MayDef)
			e.Site.ExitSlot, backing = backing[:nd:nd], backing[nd:]
			for j, v := range e.Site.MayDef {
				e.Site.ExitSlot[j] = -1
				if v.IsGlobal() && mod.Has(v.Index) {
					e.Site.ExitSlot[j] = slot[v.Index]
				}
			}
		}
	}
}

// cmpString compares a.String() and b.String() without building them:
// an owned variable's string is its owner's name, a dot and its name.
func cmpString(a, b *sem.Var) int {
	pa, pb := stringParts(a), stringParts(b)
	i, j := 0, 0
	x, y := pa[0], pb[0]
	for {
		for x == "" && i < 2 {
			i++
			x = pa[i]
		}
		for y == "" && j < 2 {
			j++
			y = pb[j]
		}
		if x == "" || y == "" {
			return len(x) - len(y)
		}
		n := min(len(x), len(y))
		if c := strings.Compare(x[:n], y[:n]); c != 0 {
			return c
		}
		x, y = x[n:], y[n:]
	}
}

// stringParts splits v.String() into the pieces it concatenates.
func stringParts(v *sem.Var) [3]string {
	if v.Kind != sem.KindGlobal && v.Owner != nil {
		return [3]string{v.Owner.Name, ".", v.Name}
	}
	return [3]string{v.Name}
}

// installGlobals sets each reachable function's global segment to the
// ascending global bits of REF*(p) ∪ MOD*(p) ∪ by-reference global
// actuals: every global p's IR names, since MayDef and clobbers are
// MOD closed under aliases and a by-reference actual is a call operand
// even when the callee ignores the formal. A procedure unreachable from
// main has no MOD/REF solution and tracks every global.
func (b *Builder) installGlobals() {
	info := b.info
	seg := bitset.New(len(info.globals))
	var gs []*sem.Var
	for _, fn := range b.prog.Funcs {
		r := info.rows(fn.Proc)
		if r.p == nil {
			fn.SetGlobals(info.globals)
			continue
		}
		copy(seg, r.ref)
		seg.Or(r.mod[:len(seg)])
		for _, call := range fn.Calls {
			for _, a := range call.ByRef {
				if a != nil && a.IsGlobal() {
					seg.Add(a.Index)
				}
			}
		}
		gs = gs[:0]
		for g := seg.Next(0); g >= 0; g = seg.Next(g + 1) {
			gs = append(gs, info.globals[g])
		}
		fn.SetGlobals(gs)
	}
}

// refLists builds every reachable procedure's RefGlobals list, each in
// its own exactly sized allocation: summaries kept in the value cache
// across program versions alias their callees' lists, and a backing
// array shared by one load's lists would keep all of them alive for as
// long as any one such summary lives.
func (b *Builder) refLists() {
	info := b.info
	gw := info.fbase / 64
	for _, p := range b.cg.Reachable {
		r := info.rows(p)
		n := r.ref[:gw].Count()
		if n == 0 {
			continue
		}
		r.refGlobals = make([]int32, 0, n)
		for g := r.ref.Next(0); g >= 0 && g < info.fbase; g = r.ref.Next(g + 1) {
			r.refGlobals = append(r.refGlobals, int32(g))
		}
	}
}
