package icp

import (
	"fsicp/internal/bitset"
	"fsicp/internal/ir"
	"fsicp/internal/sem"
)

// ComputeUse computes flow-sensitive procedure USE information — the
// set of formals and globals a procedure may reference before defining
// them (upward-exposed uses) — in one reverse topological traversal of
// the PCG, using REF information for back edges, exactly as the paper
// describes in §3.2.
//
// USE(p) ⊆ REF(p): a variable that is always rewritten before its first
// use in p is referenced but not upward-exposed. The intraprocedural
// part is a forward must-be-defined dataflow over p's CFG; at calls,
// the callee's USE (or REF on back edges) injects uses, and the call's
// MayDef does not count as a definition (it is only a may-def). Each
// set lists its globals in declaration order, then its formals by
// position.
func ComputeUse(ctx *Context) map[*sem.Proc][]*sem.Var {
	use := make(map[*sem.Proc][]*sem.Var)
	cg := ctx.CG
	for i := len(cg.Reachable) - 1; i >= 0; i-- {
		p := cg.Reachable[i]
		use[p] = procUse(ctx, p, use)
	}
	return use
}

// calleeUses returns the variables of caller frame used via one call:
// globals in the callee's USE set and by-ref actuals whose formals are
// in it.
func calleeUses(ctx *Context, call *ir.CallInstr, use map[*sem.Proc][]*sem.Var) []*sem.Var {
	callee := call.Callee
	set, ok := use[callee]
	if !ok {
		// back edge: the callee is not yet processed; fall back to REF
		set = ctx.MR.Ref(callee).Vars()
	}
	var out []*sem.Var
	for _, v := range set {
		if v.IsGlobal() {
			out = append(out, v)
			continue
		}
		if v.Kind == sem.KindFormal && v.Owner == callee && v.Index < len(call.ByRef) {
			if a := call.ByRef[v.Index]; a != nil {
				out = append(out, a)
			}
		}
	}
	return out
}

// procUse runs the intraprocedural upward-exposed-use analysis of p.
func procUse(ctx *Context, p *sem.Proc, use map[*sem.Proc][]*sem.Var) []*sem.Var {
	fn := ctx.Prog.FuncOf[p]
	globals := ctx.Prog.Sem.Globals
	// pos numbers the tracked variables: globals by declaration index,
	// then p's formals by position; -1 for any other variable.
	pos := func(v *sem.Var) int {
		switch {
		case v.IsGlobal():
			return v.Index
		case v.Kind == sem.KindFormal && v.Owner == p:
			return len(globals) + v.Index
		}
		return -1
	}

	blocks := fn.ReachableBlocks()
	n := len(fn.Blocks)

	// mustIn[b] / mustOut[b]: variables definitely defined on every
	// path from entry to b's start / end. Optimistic initialisation
	// (all vars) shrinking to the fixpoint; entry starts empty.
	type varset map[*sem.Var]bool

	mustOut := make([]varset, n)
	for _, b := range blocks {
		mustOut[b.Index] = nil // nil = "not computed yet" (⊤, all vars)
	}

	result := bitset.New(len(globals) + len(p.Params))

	// transfer walks one block: collects upward-exposed uses given the
	// must-defined set at block entry, and returns the must-defined set
	// at exit. Only certain defs (non-call instructions) kill.
	transfer := func(b *ir.Block, in varset, record bool) varset {
		defined := make(varset, len(in))
		for v := range in {
			defined[v] = true
		}
		seeUse := func(v *sem.Var) {
			if record && !defined[v] {
				if i := pos(v); i >= 0 {
					result.Add(i)
				}
			}
		}
		for _, instr := range b.Instrs {
			if call, ok := instr.(*ir.CallInstr); ok {
				for _, v := range calleeUses(ctx, call, use) {
					seeUse(v)
				}
				// A may-def does not make the variable must-defined,
				// and must even cancel definedness? No: a may-def
				// cannot weaken must-definedness (the old definition
				// still happened); it only changes the value.
				if call.Dst != nil {
					defined[call.Dst] = true
				}
				continue
			}
			for _, v := range instr.Uses() {
				seeUse(v)
			}
			if _, ok := instr.(*ir.ClobberInstr); ok {
				continue // may-defs neither use nor must-define
			}
			for _, v := range instr.Defs() {
				defined[v] = true
			}
		}
		if b.Term != nil {
			for _, v := range b.Term.Uses() {
				seeUse(v)
			}
		}
		return defined
	}

	intersect := func(a, b varset) varset {
		out := make(varset)
		for v := range a {
			if b[v] {
				out[v] = true
			}
		}
		return out
	}

	// Iterate to the must-defined fixpoint.
	for changed := true; changed; {
		changed = false
		for _, b := range blocks {
			var in varset
			if b == fn.Entry() {
				in = make(varset)
			} else {
				for _, pred := range b.Preds {
					po := mustOut[pred.Index]
					if po == nil {
						continue // not yet computed: ⊤, identity of ∩
					}
					if in == nil {
						in = po
					} else {
						in = intersect(in, po)
					}
				}
				if in == nil {
					in = make(varset)
				}
			}
			out := transfer(b, in, false)
			if mustOut[b.Index] == nil || !sameSet(mustOut[b.Index], out) {
				mustOut[b.Index] = out
				changed = true
			}
		}
	}

	// Final pass: record upward-exposed uses.
	for _, b := range blocks {
		var in varset
		if b == fn.Entry() {
			in = make(varset)
		} else {
			for _, pred := range b.Preds {
				po := mustOut[pred.Index]
				if po == nil {
					continue
				}
				if in == nil {
					in = po
				} else {
					in = intersect(in, po)
				}
			}
			if in == nil {
				in = make(varset)
			}
		}
		transfer(b, in, true)
	}
	var out []*sem.Var
	for i := result.Next(0); i >= 0; i = result.Next(i + 1) {
		if i < len(globals) {
			out = append(out, globals[i])
		} else {
			out = append(out, p.Params[i-len(globals)])
		}
	}
	return out
}

func sameSet(a, b map[*sem.Var]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for v := range a {
		if !b[v] {
			return false
		}
	}
	return true
}
