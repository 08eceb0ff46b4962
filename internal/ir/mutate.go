package ir

import "fsicp/internal/sem"

// This file is the mutation surface the SSA optimization passes use to
// rewrite instructions in place (package ssa keeps its overlay tables
// consistent through these, see ssa/rewrite.go). Everything here
// operates on one instruction or terminator; CFG-level mutation stays
// with RebuildCFG/RebuildCallLists.

// SetInstrID gives in the ID id. The SSA overlay's edits set it: a
// replacement takes its predecessor's ID, and an instruction grafted
// past the end of the function's numbering the next free one, which
// leaves the function un-Numbered until the next NumberInstrs.
func SetInstrID(in Instr, id int) { in.setInstrID(id) }

// SetUse replaces in's k-th variable operand (the k-th entry of
// in.Uses()) with v. Replacing a CallInstr argument is mechanical here
// but changes by-reference semantics when the actual is an lvalue —
// callers that rewrite calls must check ByRef first.
func SetUse(in Instr, k int, v *sem.Var) {
	switch in := in.(type) {
	case *CopyInstr:
		if k == 0 {
			in.Src = v
			return
		}
	case *UnaryInstr:
		if k == 0 {
			in.X = v
			return
		}
	case *BinaryInstr:
		switch k {
		case 0:
			in.X = v
			return
		case 1:
			in.Y = v
			return
		}
	case *PrintInstr:
		i := 0
		for a := range in.Args {
			if in.Args[a].Var == nil {
				continue
			}
			if i == k {
				in.Args[a].Var = v
				return
			}
			i++
		}
	case *CallInstr:
		if k < len(in.Args) {
			in.Args[k] = v
			return
		}
	}
	panic("ir: SetUse: no such operand")
}

// SetTermUse replaces t's k-th variable operand (the k-th entry of
// t.Uses()) with v.
func SetTermUse(t Terminator, k int, v *sem.Var) {
	switch t := t.(type) {
	case *If:
		if k == 0 {
			t.Cond = v
			return
		}
	case *Ret:
		if k == 0 && t.Val != nil {
			t.Val = v
			return
		}
	}
	panic("ir: SetTermUse: no such operand")
}

// ResetKey drops the memoized key so the next Key call computes it
// from the current IR. Mutation passes must call it (RebuildCallLists
// does, for every function) — otherwise an incremental session would
// keep matching the pre-rewrite key and reuse stale per-procedure
// analysis results.
func (f *Func) ResetKey() { f.key.Store(nil) }
