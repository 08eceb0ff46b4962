// Package inline implements procedure integration for the CFG IR — the
// "optional procedure inlining" of the paper's compilation model
// (Figure 2, step 6) and the mechanism Wegman and Zadeck proposed for
// extending their intraprocedural propagator interprocedurally. The
// paper argues (and §6's related work notes) that full integration
// captures interprocedural constants but "may not be efficient in
// practice"; this package exists so that claim can be measured — see
// the inline-vs-ICP experiment in the tables harness.
//
// Semantics of one inlined call:
//   - a by-reference actual substitutes the caller's variable directly
//     for the callee's formal (reference semantics preserved exactly,
//     including aliasing between two formals bound to one variable);
//   - a by-value actual (expression temporary) is copied into a fresh
//     caller local bound to the formal, so callee stores stay local,
//     matching Fortran argument temporaries;
//   - callee locals and temporaries are cloned into fresh caller
//     variables; globals are shared;
//   - every return becomes a jump to the continuation block, after
//     assigning the function result into the call's destination.
package inline

import (
	"fmt"
	"maps"

	"fsicp/internal/ir"
	"fsicp/internal/sem"
)

// Options bounds the Program-wide pass.
type Options struct {
	// MaxDepth bounds repeated inlining through chains (a call exposed
	// by inlining may itself be inlined up to this depth). Default 4.
	MaxDepth int
	// MaxCalleeBlocks skips callees larger than this (0 = no limit).
	MaxCalleeBlocks int
}

// Report summarises a Program-wide pass.
type Report struct {
	Inlined      int // call sites expanded
	SkippedRec   int // skipped: (mutually) recursive
	SkippedSize  int // skipped: callee too large
	BlocksBefore int
	BlocksAfter  int
}

// Call expands one call site in place. The caller's CFG is rebuilt; the
// program's call lists are NOT refreshed (callers doing batch work call
// ir.RebuildCallLists once at the end — Program does). Returns an error
// if the call would inline a procedure into itself.
func Call(prog *ir.Program, caller *ir.Func, call *ir.CallInstr) error {
	callee := prog.FuncOf[call.Callee]
	if callee == caller {
		return fmt.Errorf("inline: direct recursion %s", caller.Proc.Name)
	}

	// Locate the call within its block.
	blk := call.Block
	pos := -1
	for i, in := range blk.Instrs {
		if in == call {
			pos = i
			break
		}
	}
	if pos < 0 {
		return fmt.Errorf("inline: call not found in its block")
	}

	// Variable mapping: formals -> actuals or fresh copies; locals ->
	// fresh clones; globals -> themselves.
	vmap := make(map[*sem.Var]*sem.Var)
	var preCopies []ir.Instr
	for i, f := range call.Callee.Params {
		if i < len(call.ByRef) && call.ByRef[i] != nil {
			vmap[f] = call.ByRef[i]
			continue
		}
		cp := caller.Proc.NewLocal(f.Name, f.Type)
		caller.RegisterVar(cp)
		if i < len(call.Args) {
			preCopies = append(preCopies, &ir.CopyInstr{Dst: cp, Src: call.Args[i]})
		}
		vmap[f] = cp
	}
	mapVar := func(v *sem.Var) *sem.Var {
		if v == nil {
			return nil
		}
		if v.IsGlobal() {
			return v
		}
		if m, ok := vmap[v]; ok {
			return m
		}
		var nv *sem.Var
		if v.Kind == sem.KindTemp {
			nv = caller.Proc.NewTemp(v.Type)
		} else {
			nv = caller.Proc.NewLocal(v.Name, v.Type)
		}
		caller.RegisterVar(nv)
		vmap[v] = nv
		return nv
	}

	// Clone the callee's blocks.
	bmap := make(map[*ir.Block]*ir.Block, len(callee.Blocks))
	for _, b := range callee.Blocks {
		nb := caller.NewBlock()
		bmap[b] = nb
	}
	cont := caller.NewBlock()

	for _, b := range callee.Blocks {
		nb := bmap[b]
		for _, in := range b.Instrs {
			nb.Instrs = append(nb.Instrs, ir.CloneInstr(in, mapVar))
		}
		switch t := b.Term.(type) {
		case *ir.Jump:
			nb.Term = &ir.Jump{Target: bmap[t.Target]}
		case *ir.If:
			nb.Term = &ir.If{Cond: mapVar(t.Cond), Then: bmap[t.Then], Else: bmap[t.Else]}
		case *ir.Ret:
			if t.Val != nil && call.Dst != nil {
				nb.Instrs = append(nb.Instrs, &ir.CopyInstr{Dst: call.Dst, Src: mapVar(t.Val)})
			}
			nb.Term = &ir.Jump{Target: cont}
		default:
			return fmt.Errorf("inline: unterminated callee block")
		}
	}

	// Split the call block: [pre-call instrs + copies] -> callee entry;
	// continuation holds the post-call instrs and the old terminator.
	cont.Instrs = append(cont.Instrs, blk.Instrs[pos+1:]...)
	cont.Term = blk.Term
	blk.Instrs = append(blk.Instrs[:pos:pos], preCopies...)
	blk.Term = &ir.Jump{Target: bmap[callee.Entry()]}

	// The grafted calls keep the callee's argument syntax, which the
	// jump functions and the flow-insensitive method resolve through
	// the caller's tables.
	maps.Copy(caller.Proc.Refs, call.Callee.Refs)
	maps.Copy(caller.Proc.Callees, call.Callee.Callees)

	ir.RebuildCFG(caller)
	return nil
}

// Program inlines every non-recursive call site reachable from main,
// repeatedly up to opts.MaxDepth, and refreshes the program's call
// lists. Recursive cycles are left as calls.
func Program(prog *ir.Program, opts Options) Report {
	if opts.MaxDepth == 0 {
		opts.MaxDepth = 4
	}
	var rep Report
	for _, fn := range prog.Funcs {
		rep.BlocksBefore += len(fn.Blocks)
	}

	// recursive procs: any proc in a call-graph cycle (computed on the
	// static IR, simple DFS colouring).
	recursive := findRecursive(prog)

	for depth := 0; depth < opts.MaxDepth; depth++ {
		changed := false
		ir.RebuildCallLists(prog)
		for _, fn := range prog.Funcs {
			calls := append([]*ir.CallInstr(nil), fn.Calls...)
			for _, call := range calls {
				if recursive[call.Callee] || call.Callee == fn.Proc {
					rep.SkippedRec++
					continue
				}
				callee := prog.FuncOf[call.Callee]
				if opts.MaxCalleeBlocks > 0 && len(callee.Blocks) > opts.MaxCalleeBlocks {
					rep.SkippedSize++
					continue
				}
				if err := Call(prog, fn, call); err == nil {
					rep.Inlined++
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	ir.RebuildCallLists(prog)
	for _, fn := range prog.Funcs {
		rep.BlocksAfter += len(fn.Blocks)
	}
	return rep
}

// findRecursive marks procedures on call-graph cycles.
func findRecursive(prog *ir.Program) map[*sem.Proc]bool {
	color := make(map[*sem.Proc]int) // 0 white, 1 grey, 2 black
	onCycle := make(map[*sem.Proc]bool)
	var stack []*sem.Proc
	var dfs func(p *sem.Proc)
	dfs = func(p *sem.Proc) {
		color[p] = 1
		stack = append(stack, p)
		for _, call := range prog.FuncOf[p].Calls {
			q := call.Callee
			switch color[q] {
			case 0:
				dfs(q)
			case 1:
				// Mark everything on the stack from q to p.
				for i := len(stack) - 1; i >= 0; i-- {
					onCycle[stack[i]] = true
					if stack[i] == q {
						break
					}
				}
			}
		}
		stack = stack[:len(stack)-1]
		color[p] = 2
	}
	for _, fn := range prog.Funcs {
		if color[fn.Proc] == 0 {
			dfs(fn.Proc)
		}
	}
	return onCycle
}
