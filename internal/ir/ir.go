// Package ir defines the per-procedure control-flow-graph intermediate
// representation consumed by the analyses.
//
// Instructions are flattened three-address operations over sem.Var
// operands (compiler temporaries carry intermediate expression values).
// Each basic block ends in exactly one terminator (Jump, If, or Ret).
// Call instructions retain the original argument syntax trees so that
// jump-function baselines and the paper's IMM metric can inspect the
// argument shape.
//
// The IR is deliberately not in SSA form: SSA construction (package ssa)
// happens per procedure after interprocedural MOD/REF is known, so that
// calls can be modelled as definitions of the by-reference actuals and
// globals they may modify — exactly the ordering of the paper's
// compilation model (its Figure 2).
package ir

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"

	"fsicp/internal/ast"
	"fsicp/internal/sem"
	"fsicp/internal/token"
	"fsicp/internal/val"
)

// Program is the whole-program IR.
type Program struct {
	Sem    *sem.Program
	Funcs  []*Func // parallel to Sem.Procs
	FuncOf map[*sem.Proc]*Func

	// CallSites is every call instruction in the program, in a stable
	// order; CallInstr.ID indexes this slice.
	CallSites []*CallInstr

	// AliasClobbersDone records that alias.InsertClobbers already ran,
	// so re-preparing a transformed program does not duplicate
	// clobbers.
	AliasClobbersDone bool
}

// Func is the CFG of one procedure.
type Func struct {
	Proc   *sem.Proc
	Blocks []*Block // Blocks[0] is the entry block
	Calls  []*CallInstr

	// AllVars lists every variable the analyses track in this
	// procedure: formals, locals and temporaries, then the global
	// segment (Globals) modref installs — REF*(p) ∪ MOD*(p) plus the
	// globals p passes by reference, in declaration order. Any other
	// global passes through p and its callees untouched; constants still
	// flow through a procedure that cannot see them (the paper's VIS vs
	// FS distinction) because REF* is transitive. VarOrd locates a
	// variable here without a program-wide table: the procedure's own
	// variables record their position (sem.Var.Slot), and a global is
	// looked up in the sorted segment.
	AllVars []*sem.Var
	// The segment is AllVars[globalOff : globalOff+numGlobals]; inlined
	// locals registered later follow it, and an empty segment stays last.
	globalOff, numGlobals int

	// NumInstrs is the instruction count of the last NumberInstrs pass
	// (0 before the first numbering).
	NumInstrs int

	// fp caches a content fingerprint of this function (see
	// Fingerprint). IR is immutable between the end of the load
	// pipeline — including the clobber-annotation pass — and the first
	// transformation pass, so a stored value stays valid until a
	// mutation pass resets it (ResetFingerprint, called for every
	// function by RebuildCallLists).
	fp atomic.Pointer[string]
}

// Fingerprint returns the function's cached content fingerprint,
// computing it with fn on first use. Safe for concurrent callers: the
// computation is deterministic, so racing stores write equal values.
func (f *Func) Fingerprint(fn func(*Func) string) string {
	if p := f.fp.Load(); p != nil {
		return *p
	}
	s := fn(f)
	f.fp.Store(&s)
	return s
}

// Entry returns the entry block.
func (f *Func) Entry() *Block { return f.Blocks[0] }

// NewBlock appends a new empty block.
func (f *Func) NewBlock() *Block {
	b := &Block{Index: len(f.Blocks), Func: f}
	f.Blocks = append(f.Blocks, b)
	return b
}

// Block is one basic block.
type Block struct {
	Index  int
	Func   *Func
	Instrs []Instr
	Term   Terminator
	Preds  []*Block
	Succs  []*Block
}

func (b *Block) String() string { return "b" + strconv.Itoa(b.Index) }

// addEdge records a CFG edge.
func addEdge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// SetTerm installs the terminator and wires CFG edges.
func (b *Block) SetTerm(t Terminator) {
	if b.Term != nil {
		panic("ir: block already terminated")
	}
	b.Term = t
	switch t := t.(type) {
	case *Jump:
		addEdge(b, t.Target)
	case *If:
		addEdge(b, t.Then)
		addEdge(b, t.Else)
	case *Ret:
	}
}

// Instr is a non-terminator instruction.
type Instr interface {
	// Defs returns the variables this instruction certainly or possibly
	// defines (call defs are filled in by the modref phase).
	Defs() []*sem.Var
	// Uses returns the variable operands read by this instruction.
	Uses() []*sem.Var
	String() string
	// InstrID returns the instruction's dense per-function ID assigned
	// by Func.NumberInstrs, or -1 if the instruction has not been
	// numbered (e.g. it was created after the last numbering pass).
	InstrID() int
	setInstrID(int)
}

// instrNode carries the dense per-function instruction ID every
// concrete instruction embeds. The stored value is id+1 so the zero
// value decodes as the -1 "unnumbered" sentinel — instructions grafted
// by transformation passes stay distinguishable from instruction 0.
type instrNode struct{ id int32 }

func (n *instrNode) InstrID() int     { return int(n.id) - 1 }
func (n *instrNode) setInstrID(i int) { n.id = int32(i) + 1 }

// NumberInstrs assigns dense per-function instruction IDs in block
// order (the deterministic CFG order analyses iterate in) and records
// the count in NumInstrs, so that def/use tables can be slices indexed
// by instruction ID instead of pointer-keyed maps. The IR builder
// numbers every function it emits and RebuildCallLists renumbers after
// mutation passes, so analyses see pre-numbered functions and never
// write to shared IR — Program.Analyze stays safe to call from many
// goroutines at once. Renumbering is idempotent and cheap.
func (f *Func) NumberInstrs() int {
	n := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			in.setInstrID(n)
			n++
		}
	}
	f.NumInstrs = n
	return n
}

// Numbered reports whether the function's instruction numbering is
// current: every instruction carries its block-order ID and NumInstrs
// matches the count. It is read-only, so concurrent analyses may probe
// a shared program; a pass that grafts or removes instructions must
// renumber (RebuildCallLists does) before the program is shared again.
func (f *Func) Numbered() bool {
	n := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.InstrID() != n {
				return false
			}
			n++
		}
	}
	return f.NumInstrs == n
}

// ConstInstr assigns a literal constant: dst = <value>.
type ConstInstr struct {
	instrNode
	Dst *sem.Var
	Val val.Value
}

// CopyInstr copies one variable: dst = src.
type CopyInstr struct {
	instrNode
	Dst *sem.Var
	Src *sem.Var
}

// UnaryInstr applies a unary operator: dst = op x.
type UnaryInstr struct {
	instrNode
	Dst *sem.Var
	Op  token.Kind
	X   *sem.Var
}

// BinaryInstr applies a binary operator: dst = x op y.
type BinaryInstr struct {
	instrNode
	Dst  *sem.Var
	Op   token.Kind
	X, Y *sem.Var
}

// ReadInstr assigns an external input value: dst = read().
type ReadInstr struct {
	instrNode
	Dst *sem.Var
}

// PrintArg is one print operand: either a variable or a string literal.
type PrintArg struct {
	Var *sem.Var // nil for string arguments
	Str string
}

// PrintInstr writes values to the program output.
type PrintInstr struct {
	instrNode
	Args []PrintArg
}

// CallInstr invokes a procedure or function.
type CallInstr struct {
	instrNode
	ID      int       // global call-site index within the Program
	SiteIdx int       // position within the owning Func's Calls list
	Callee  *sem.Proc // resolved callee
	Block   *Block

	// Args holds the flattened value of each actual (always a variable
	// after IR construction; expressions are computed into temps).
	Args []*sem.Var
	// ByRef[i] is non-nil iff the i-th actual is an lvalue passed by
	// reference (the variable itself); expression actuals pass a
	// temporary and any callee modification is lost, Fortran-style.
	ByRef []*sem.Var
	// ArgSyntax preserves the source expression of each actual for jump
	// functions and the IMM metric.
	ArgSyntax []ast.Expr

	// Dst receives the function result (nil for subroutine calls).
	Dst *sem.Var

	// MayDef is filled by the modref phase: every variable in the
	// caller's frame this call may modify (by-ref actuals of modified
	// formals, modified globals, and their aliases).
	MayDef []*sem.Var
}

// ClobberInstr marks variables as possibly redefined with unknown
// values. Inserted for may-alias side effects of assignments.
type ClobberInstr struct {
	instrNode
	Vars []*sem.Var
	// Why documents the clobber for IR dumps.
	Why string
}

func (i *ConstInstr) Defs() []*sem.Var   { return []*sem.Var{i.Dst} }
func (i *CopyInstr) Defs() []*sem.Var    { return []*sem.Var{i.Dst} }
func (i *UnaryInstr) Defs() []*sem.Var   { return []*sem.Var{i.Dst} }
func (i *BinaryInstr) Defs() []*sem.Var  { return []*sem.Var{i.Dst} }
func (i *ReadInstr) Defs() []*sem.Var    { return []*sem.Var{i.Dst} }
func (i *PrintInstr) Defs() []*sem.Var   { return nil }
func (i *CallInstr) Defs() []*sem.Var    { return AppendDefs(nil, i) }
func (i *ClobberInstr) Defs() []*sem.Var { return i.Vars }

func (i *ConstInstr) Uses() []*sem.Var   { return nil }
func (i *CopyInstr) Uses() []*sem.Var    { return []*sem.Var{i.Src} }
func (i *UnaryInstr) Uses() []*sem.Var   { return []*sem.Var{i.X} }
func (i *BinaryInstr) Uses() []*sem.Var  { return []*sem.Var{i.X, i.Y} }
func (i *ReadInstr) Uses() []*sem.Var    { return nil }
func (i *PrintInstr) Uses() []*sem.Var   { return AppendUses(nil, i) }
func (i *CallInstr) Uses() []*sem.Var    { return i.Args }
func (i *ClobberInstr) Uses() []*sem.Var { return nil }

// AppendDefs appends in.Defs() to dst. Unlike Defs, it allocates no
// slice per instruction, so a pass walking every instruction can reuse
// one buffer.
func AppendDefs(dst []*sem.Var, in Instr) []*sem.Var {
	switch in := in.(type) {
	case *ConstInstr:
		return append(dst, in.Dst)
	case *CopyInstr:
		return append(dst, in.Dst)
	case *UnaryInstr:
		return append(dst, in.Dst)
	case *BinaryInstr:
		return append(dst, in.Dst)
	case *ReadInstr:
		return append(dst, in.Dst)
	case *CallInstr:
		if in.Dst != nil {
			dst = append(dst, in.Dst)
		}
		return append(dst, in.MayDef...)
	case *ClobberInstr:
		return append(dst, in.Vars...)
	}
	return dst
}

// AppendUses appends in.Uses() to dst, like AppendDefs.
func AppendUses(dst []*sem.Var, in Instr) []*sem.Var {
	switch in := in.(type) {
	case *CopyInstr:
		return append(dst, in.Src)
	case *UnaryInstr:
		return append(dst, in.X)
	case *BinaryInstr:
		return append(dst, in.X, in.Y)
	case *PrintInstr:
		for _, a := range in.Args {
			if a.Var != nil {
				dst = append(dst, a.Var)
			}
		}
	case *CallInstr:
		return append(dst, in.Args...)
	}
	return dst
}

func (i *ConstInstr) String() string { return i.Dst.String() + " = const " + i.Val.String() }
func (i *CopyInstr) String() string  { return i.Dst.String() + " = " + i.Src.String() }
func (i *UnaryInstr) String() string {
	return i.Dst.String() + " = " + i.Op.String() + i.X.String()
}
func (i *BinaryInstr) String() string {
	return i.Dst.String() + " = " + i.X.String() + " " + i.Op.String() + " " + i.Y.String()
}
func (i *ReadInstr) String() string { return i.Dst.String() + " = read()" }
func (i *PrintInstr) String() string {
	parts := make([]string, len(i.Args))
	for k, a := range i.Args {
		if a.Var != nil {
			parts[k] = a.Var.String()
		} else {
			parts[k] = strconv.Quote(a.Str)
		}
	}
	return "print " + strings.Join(parts, ", ")
}
func (i *CallInstr) String() string {
	args := make([]string, len(i.Args))
	for k, a := range i.Args {
		args[k] = a.String()
	}
	s := "call " + i.Callee.Name + "(" + strings.Join(args, ", ") + ")"
	if i.Dst != nil {
		s = i.Dst.String() + " = " + s
	}
	if len(i.MayDef) > 0 {
		defs := make([]string, len(i.MayDef))
		for k, v := range i.MayDef {
			defs[k] = v.String()
		}
		s += " [maydef " + strings.Join(defs, ",") + "]"
	}
	return s
}
func (i *ClobberInstr) String() string {
	vars := make([]string, len(i.Vars))
	for k, v := range i.Vars {
		vars[k] = v.String()
	}
	return "clobber " + strings.Join(vars, ", ") + " (" + i.Why + ")"
}

// Terminator ends a block.
type Terminator interface {
	Uses() []*sem.Var
	String() string
	termNode()
}

// Jump transfers control unconditionally.
type Jump struct{ Target *Block }

// If branches on a bool variable.
type If struct {
	Cond *sem.Var
	Then *Block
	Else *Block
}

// Ret returns from the procedure, with Val set iff it is a function
// return carrying a value.
type Ret struct{ Val *sem.Var }

func (*Jump) termNode() {}
func (*If) termNode()   {}
func (*Ret) termNode()  {}

func (t *Jump) Uses() []*sem.Var { return nil }
func (t *If) Uses() []*sem.Var   { return []*sem.Var{t.Cond} }
func (t *Ret) Uses() []*sem.Var {
	if t.Val != nil {
		return []*sem.Var{t.Val}
	}
	return nil
}

// TermOperand returns t's one variable operand, t.Uses()[0], or nil
// when it has none, without allocating.
func TermOperand(t Terminator) *sem.Var {
	switch t := t.(type) {
	case *If:
		return t.Cond
	case *Ret:
		return t.Val
	}
	return nil
}

func (t *Jump) String() string { return "jump " + t.Target.String() }
func (t *If) String() string {
	return "if " + t.Cond.String() + " then " + t.Then.String() + " else " + t.Else.String()
}
func (t *Ret) String() string {
	if t.Val != nil {
		return "ret " + t.Val.String()
	}
	return "ret"
}

// Dump renders the function CFG for debugging and golden tests.
func (f *Func) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "func %s", f.Proc.Name)
	params := make([]string, len(f.Proc.Params))
	for i, p := range f.Proc.Params {
		params[i] = p.Name
	}
	fmt.Fprintf(&b, "(%s):\n", strings.Join(params, ", "))
	for _, blk := range f.Blocks {
		fmt.Fprintf(&b, "%s:", blk)
		if len(blk.Preds) > 0 {
			preds := make([]string, len(blk.Preds))
			for i, p := range blk.Preds {
				preds[i] = p.String()
			}
			fmt.Fprintf(&b, " ; preds %s", strings.Join(preds, ","))
		}
		b.WriteByte('\n')
		for _, in := range blk.Instrs {
			fmt.Fprintf(&b, "  %s\n", in)
		}
		if blk.Term != nil {
			fmt.Fprintf(&b, "  %s\n", blk.Term)
		} else {
			b.WriteString("  <unterminated>\n")
		}
	}
	return b.String()
}

// Dump renders every function.
func (p *Program) Dump() string {
	var b strings.Builder
	for i, f := range p.Funcs {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(f.Dump())
	}
	return b.String()
}

// ReachableBlocks returns the blocks reachable from entry, in reverse
// post-order (entry first). Unreachable blocks (e.g. code after return)
// are excluded, which every dominator/SSA client relies on.
func (f *Func) ReachableBlocks() []*Block {
	seen := make([]bool, len(f.Blocks))
	var order []*Block
	var dfs func(b *Block)
	dfs = func(b *Block) {
		seen[b.Index] = true
		for _, s := range b.Succs {
			if !seen[s.Index] {
				dfs(s)
			}
		}
		order = append(order, b)
	}
	dfs(f.Entry())
	// reverse
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// RebuildCFG recomputes preds/succs from terminators and removes blocks
// unreachable from the entry, reindexing the rest. Returns the number
// of removed blocks. Transformation passes (folding, inlining) call it
// after rewriting terminators or grafting blocks.
func RebuildCFG(fn *Func) int {
	for _, b := range fn.Blocks {
		b.Preds = nil
		b.Succs = nil
	}
	for _, b := range fn.Blocks {
		switch t := b.Term.(type) {
		case *Jump:
			addEdge(b, t.Target)
		case *If:
			addEdge(b, t.Then)
			addEdge(b, t.Else)
		}
	}
	seen := make(map[*Block]bool)
	var order []*Block
	var dfs func(b *Block)
	dfs = func(b *Block) {
		seen[b] = true
		order = append(order, b)
		for _, s := range b.Succs {
			if !seen[s] {
				dfs(s)
			}
		}
	}
	dfs(fn.Blocks[0])
	removed := len(fn.Blocks) - len(order)
	for _, b := range order {
		kept := b.Preds[:0]
		for _, p := range b.Preds {
			if seen[p] {
				kept = append(kept, p)
			}
		}
		b.Preds = kept
	}
	fn.Blocks = order
	for i, b := range fn.Blocks {
		b.Index = i
	}
	return removed
}

// RebuildCallLists refreshes per-function call lists, instruction
// numbering, and the program's global call-site index after blocks
// were added or removed. It also drops every function's cached content
// fingerprint: all mutation passes funnel through here, so this is
// where incremental sessions learn that rewritten procedures changed.
func RebuildCallLists(prog *Program) {
	prog.CallSites = prog.CallSites[:0]
	for _, fn := range prog.Funcs {
		fn.ResetFingerprint()
		fn.NumberInstrs()
		fn.Calls = fn.Calls[:0]
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				if call, ok := in.(*CallInstr); ok {
					call.ID = len(prog.CallSites)
					call.SiteIdx = len(fn.Calls)
					call.Block = b
					prog.CallSites = append(prog.CallSites, call)
					fn.Calls = append(fn.Calls, call)
				}
			}
		}
	}
}

// RegisterVar adds one of the procedure's own formals, locals or
// temporaries to the tracked set if absent, recording its position on
// the variable. Only the owner's function tracks such a variable
// (irbuild, inlining and cloning register nothing else); globals are
// installed with SetGlobals.
func (f *Func) RegisterVar(v *sem.Var) {
	if v.IsGlobal() || v.Owner != f.Proc {
		panic("ir: " + v.String() + " registered outside its owner's function")
	}
	if v.Slot > 0 {
		return
	}
	if f.numGlobals == 0 && f.globalOff == len(f.AllVars) {
		f.globalOff++
	}
	v.Slot = int32(len(f.AllVars)) + 1
	f.AllVars = append(f.AllVars, v)
}

// Globals returns the global segment, aliasing AllVars.
func (f *Func) Globals() []*sem.Var {
	return f.AllVars[f.globalOff : f.globalOff+f.numGlobals]
}

// GlobalOffset returns the AllVars position of the global segment.
func (f *Func) GlobalOffset() int { return f.globalOff }

// SetGlobals replaces the global segment with gs, which must be in
// declaration order, keeping the variables registered after it in
// order and rewriting their recorded positions. modref calls it on
// every run, so the segment follows MOD/REF after cloning or inlining.
func (f *Func) SetGlobals(gs []*sem.Var) {
	off, old := f.globalOff, f.numGlobals
	tail := len(f.AllVars) - off - old
	n := off + len(gs) + tail
	if n > len(f.AllVars) {
		f.AllVars = append(f.AllVars, make([]*sem.Var, n-len(f.AllVars))...)
	}
	copy(f.AllVars[off+len(gs):n], f.AllVars[off+old:off+old+tail])
	clear(f.AllVars[n:])
	f.AllVars = f.AllVars[:n]
	copy(f.AllVars[off:], gs)
	f.numGlobals = len(gs)
	for i := off + len(gs); i < n; i++ {
		f.AllVars[i].Slot = int32(i) + 1
	}
}

// VarOrd returns the variable's position in AllVars, or -1 when the
// function does not track it. A formal, local or temporary carries its
// position, valid in its owner's function only; a global's position is
// the segment offset plus its rank in the declaration-ordered segment,
// found by binary search on its declaration index.
func (f *Func) VarOrd(v *sem.Var) int {
	switch {
	case v == nil:
		return -1
	case v.IsGlobal():
		gs := f.Globals()
		i, ok := slices.BinarySearchFunc(gs, v.Index, func(g *sem.Var, index int) int { return g.Index - index })
		if !ok || gs[i] != v {
			return -1
		}
		return f.globalOff + i
	case v.Owner == f.Proc:
		return int(v.Slot) - 1
	}
	return -1
}

// FrameLen returns the length of the procedure's environment frame:
// one slot per formal, by position, then one per global of the
// segment, in declaration order. Entry and exit environments take this
// form: they bind exactly the variables an SCC run seeds from the
// entry.
func (f *Func) FrameLen() int { return len(f.Proc.Params) + f.numGlobals }

// FrameVar returns the variable of slot k of the procedure's
// environment frame.
func (f *Func) FrameVar(k int) *sem.Var {
	if np := len(f.Proc.Params); k >= np {
		return f.AllVars[f.globalOff+k-np]
	}
	return f.Proc.Params[k]
}

// FrameOrd returns the AllVars position of slot k's variable, without
// a search.
func (f *Func) FrameOrd(k int) int {
	if np := len(f.Proc.Params); k >= np {
		return f.globalOff + k - np
	}
	return int(f.Proc.Params[k].Slot) - 1
}

// OrdSlot returns the frame slot of AllVars[i], or -1 when it is a
// local or temporary: FrameSlot for a variable whose position is
// already known, without a search.
func (f *Func) OrdSlot(i int) int {
	if i >= f.globalOff && i < f.globalOff+f.numGlobals {
		return len(f.Proc.Params) + i - f.globalOff
	}
	if v := f.AllVars[i]; v.Kind == sem.KindFormal && v.Owner == f.Proc {
		return v.Index
	}
	return -1
}

// FrameSlot returns v's slot in the procedure's environment frame, or
// -1 when v is neither one of its formals nor in its global segment.
func (f *Func) FrameSlot(v *sem.Var) int {
	switch {
	case v.Kind == sem.KindFormal && v.Owner == f.Proc:
		return v.Index
	case v.IsGlobal():
		if o := f.VarOrd(v); o >= 0 {
			return len(f.Proc.Params) + o - f.globalOff
		}
	}
	return -1
}

// CloneInstr deep-copies one instruction, mapping every variable
// operand through mapVar. Used by transformation passes that graft code
// between procedures (inlining, cloning).
func CloneInstr(in Instr, mapVar func(*sem.Var) *sem.Var) Instr {
	switch in := in.(type) {
	case *ConstInstr:
		return &ConstInstr{Dst: mapVar(in.Dst), Val: in.Val}
	case *CopyInstr:
		return &CopyInstr{Dst: mapVar(in.Dst), Src: mapVar(in.Src)}
	case *UnaryInstr:
		return &UnaryInstr{Dst: mapVar(in.Dst), Op: in.Op, X: mapVar(in.X)}
	case *BinaryInstr:
		return &BinaryInstr{Dst: mapVar(in.Dst), Op: in.Op, X: mapVar(in.X), Y: mapVar(in.Y)}
	case *ReadInstr:
		return &ReadInstr{Dst: mapVar(in.Dst)}
	case *PrintInstr:
		args := make([]PrintArg, len(in.Args))
		for i, a := range in.Args {
			args[i] = PrintArg{Var: mapVar(a.Var), Str: a.Str}
		}
		return &PrintInstr{Args: args}
	case *ClobberInstr:
		vars := make([]*sem.Var, len(in.Vars))
		for i, v := range in.Vars {
			vars[i] = mapVar(v)
		}
		return &ClobberInstr{Vars: vars, Why: in.Why}
	case *CallInstr:
		nc := &CallInstr{Callee: in.Callee, ArgSyntax: in.ArgSyntax, Dst: mapVar(in.Dst)}
		nc.Args = make([]*sem.Var, len(in.Args))
		for i, a := range in.Args {
			nc.Args[i] = mapVar(a)
		}
		nc.ByRef = make([]*sem.Var, len(in.ByRef))
		for i, a := range in.ByRef {
			nc.ByRef[i] = mapVar(a)
		}
		nc.MayDef = make([]*sem.Var, len(in.MayDef))
		for i, v := range in.MayDef {
			nc.MayDef[i] = mapVar(v)
		}
		return nc
	}
	panic(fmt.Sprintf("ir: cannot clone instruction %T", in))
}
