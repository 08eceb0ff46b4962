// Package alias computes interprocedural reference-parameter aliases
// for MiniFort, in the style of Cooper (1985) / Banning (1979): because
// formal parameters are bound by reference, passing the same variable to
// two formals, or passing a global to a formal of a procedure that can
// also access the global, introduces may-aliases inside the callee.
// Alias pairs propagate down call chains to a fixpoint.
//
// The ICP phases consume aliases in two ways (see package modref and
// package icp): MOD/REF sets are closed under alias pairs, and every
// direct definition of an alias-class member is followed by a clobber of
// its partners so the SSA-based propagator cannot carry a stale constant
// across an aliased store.
package alias

import (
	"sort"

	"fsicp/internal/callgraph"
	"fsicp/internal/ir"
	"fsicp/internal/sem"
)

// Pair is an unordered may-alias pair within one procedure. Both
// members are formals of that procedure or globals.
type Pair struct {
	A, B *sem.Var
}

// canon orders a pair by (Kind, Index), which is unique among one
// procedure's formals and globals, so probing a pair builds no string.
func canon(a, b *sem.Var) Pair {
	if b.Kind < a.Kind || b.Kind == a.Kind && b.Index < a.Index {
		a, b = b, a
	}
	return Pair{a, b}
}

// varLess orders partner lists, and so clobbers, by name.
func varLess(a, b *sem.Var) bool {
	an, bn := a.String(), b.String()
	if an != bn {
		return an < bn
	}
	return a.Kind < b.Kind
}

// Info holds the alias solution.
type Info struct {
	// PairsOf[p] is the set of may-alias pairs holding on entry to p.
	PairsOf map[*sem.Proc]map[Pair]bool
	// partners[p][v] lists v's may-alias partners in p.
	partners map[*sem.Proc]map[*sem.Var][]*sem.Var

	// procs and slots support sharded partner-list construction:
	// BuildPartners(pos) fills slots[pos] for procs[pos] (reachable
	// order), and FinishPartners installs the slots into the partners
	// map serially.
	procs []*sem.Proc
	slots []map[*sem.Var][]*sem.Var
}

// Compute finds all may-alias pairs by propagating bindings over the
// call graph to a fixpoint, then builds the per-procedure partner
// lists. Serial convenience wrapper over Fixpoint / BuildPartners /
// FinishPartners.
func Compute(prog *ir.Program, cg *callgraph.Graph) *Info {
	info := Fixpoint(prog, cg)
	for pos := range info.procs {
		info.BuildPartners(pos)
	}
	info.FinishPartners()
	return info
}

// Fixpoint runs the serial interprocedural alias-pair propagation. The
// per-procedure partner lists are not yet built: fan BuildPartners(pos)
// for pos 0..len(cg.Reachable)-1 across goroutines (each shard touches
// only its own slot), then call FinishPartners.
func Fixpoint(prog *ir.Program, cg *callgraph.Graph) *Info {
	info := &Info{
		PairsOf:  make(map[*sem.Proc]map[Pair]bool),
		partners: make(map[*sem.Proc]map[*sem.Var][]*sem.Var),
		procs:    cg.Reachable,
		slots:    make([]map[*sem.Var][]*sem.Var, len(cg.Reachable)),
	}
	for _, p := range cg.Reachable {
		info.PairsOf[p] = make(map[Pair]bool)
	}

	add := func(p *sem.Proc, a, b *sem.Var) bool {
		if a == b {
			return false
		}
		pr := canon(a, b)
		if info.PairsOf[p][pr] {
			return false
		}
		info.PairsOf[p][pr] = true
		return true
	}

	// aliased reports whether a and b may alias in p (or are equal).
	aliased := func(p *sem.Proc, a, b *sem.Var) bool {
		if a == b {
			return true
		}
		return info.PairsOf[p][canon(a, b)]
	}

	for changed := true; changed; {
		changed = false
		for _, e := range cg.Edges {
			call, callee, caller := e.Site, e.Callee, e.Caller
			n := len(callee.Params)
			for i := 0; i < n && i < len(call.ByRef); i++ {
				ai := call.ByRef[i]
				if ai == nil {
					continue // expression temp: no alias introduced
				}
				fi := callee.Params[i]
				// formal-formal aliases: two by-ref slots bound to the
				// same or aliased actuals.
				for j := i + 1; j < n && j < len(call.ByRef); j++ {
					aj := call.ByRef[j]
					if aj == nil {
						continue
					}
					if aliased(caller, ai, aj) {
						if add(callee, fi, callee.Params[j]) {
							changed = true
						}
					}
				}
				// formal-global aliases: actual is (or aliases) a
				// global.
				if ai.IsGlobal() {
					if add(callee, fi, ai) {
						changed = true
					}
				}
				// Globals the actual aliases: none without a pair.
				if len(info.PairsOf[caller]) == 0 {
					continue
				}
				for _, g := range prog.Sem.Globals {
					if g != ai && aliased(caller, ai, g) {
						if add(callee, fi, g) {
							changed = true
						}
					}
				}
			}
		}
	}

	return info
}

// BuildPartners builds the partner lists of the pos-th reachable
// procedure into its private slot. Requires the Fixpoint to have
// completed; safe to call concurrently for distinct pos (the PairsOf
// maps are only read).
func (i *Info) BuildPartners(pos int) {
	p := i.procs[pos]
	pairs := i.PairsOf[p]
	if len(pairs) == 0 {
		return
	}
	m := make(map[*sem.Var][]*sem.Var)
	for pr := range pairs {
		m[pr.A] = append(m[pr.A], pr.B)
		m[pr.B] = append(m[pr.B], pr.A)
	}
	for v := range m {
		sort.Slice(m[v], func(a, b int) bool { return varLess(m[v][a], m[v][b]) })
	}
	i.slots[pos] = m
}

// FinishPartners installs every built slot into the partners map.
// Serial epilogue of the sharded partner construction.
func (i *Info) FinishPartners() {
	for pos, m := range i.slots {
		if m != nil {
			i.partners[i.procs[pos]] = m
		}
	}
	i.slots = nil
}

// Partners returns the may-alias partners of v inside p (nil if none).
func (i *Info) Partners(p *sem.Proc, v *sem.Var) []*sem.Var {
	return i.partners[p][v]
}

// HasAliases reports whether p has any alias pair.
func (i *Info) HasAliases(p *sem.Proc) bool { return len(i.PairsOf[p]) > 0 }

// InsertClobbers rewrites the IR of every reachable procedure, inserting
// a ClobberInstr for v's alias partners immediately after every
// instruction that directly defines v. Call-site kills are handled
// separately (modref closes CallInstr.MayDef under aliases), so calls
// are skipped here. The pass is idempotent per program build.
func (i *Info) InsertClobbers(prog *ir.Program, cg *callgraph.Graph) {
	n, shard := i.ClobberShards(prog, cg)
	for pos := 0; pos < n; pos++ {
		shard(pos)
	}
}

// ClobberShards returns InsertClobbers as a parallel-for over the
// reachable procedures: each shard rewrites (and renumbers) only its
// own function, so shards may run concurrently. Returns n = 0 when the
// program's clobbers are already inserted; the idempotence flag is
// claimed here, serially, before any shard runs.
func (i *Info) ClobberShards(prog *ir.Program, cg *callgraph.Graph) (int, func(pos int)) {
	if prog.AliasClobbersDone {
		return 0, nil
	}
	prog.AliasClobbersDone = true
	return len(cg.Reachable), func(pos int) {
		i.insertClobbersProc(prog, cg.Reachable[pos])
	}
}

// insertClobbersProc rewrites one procedure, then renumbers its
// instructions so no later phase (ssa.Build's Numbered fallback) has to
// write to shared IR during analysis.
func (i *Info) insertClobbersProc(prog *ir.Program, p *sem.Proc) {
	if !i.HasAliases(p) {
		return
	}
	fn := prog.FuncOf[p]
	for _, b := range fn.Blocks {
		var out []ir.Instr
		for _, in := range b.Instrs {
			out = append(out, in)
			if _, isCall := in.(*ir.CallInstr); isCall {
				continue
			}
			if _, isClob := in.(*ir.ClobberInstr); isClob {
				continue
			}
			var clob []*sem.Var
			for _, d := range in.Defs() {
				for _, w := range i.Partners(p, d) {
					clob = append(clob, w)
				}
			}
			if len(clob) > 0 {
				out = append(out, &ir.ClobberInstr{Vars: clob, Why: "may-alias"})
			}
		}
		b.Instrs = out
	}
	fn.NumberInstrs()
}
