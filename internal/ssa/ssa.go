// Package ssa converts the CFG IR of one procedure into SSA def-use
// form, following Cytron, Ferrante, Rosen, Wegman and Zadeck (TOPLAS
// 1991): φ-functions are placed on iterated dominance frontiers and a
// dominator-tree walk renames uses to their reaching definitions.
//
// The representation is "overlay" SSA: the underlying ir instructions
// are untouched; this package records, for every instruction operand,
// which Definition reaches it, and for every instruction, the
// Definitions it creates. Call instructions define their may-modified
// variables (ir.CallInstr.MayDef, filled by the modref phase), which is
// how interprocedural kills become visible to the intraprocedural
// propagator.
//
// Every tracked variable (ir.Func.AllVars) has an implicit entry
// definition (formal parameter, global at procedure entry, or undefined
// local); the entry definitions of formals and globals are the
// injection points for interprocedural constants. For each call site
// the renamer snapshots the reaching definition of every tracked global
// — the function's global segment, installed by modref — which the
// flow-sensitive ICP reads as "the value of global g at this call site".
//
// No definition, use or table row holds a pointer: a definition is an
// int32 ID indexing Defs and names its variable, block, φ and
// instruction by index, use lists are linked through indices into
// Uses, and every per-instruction or per-block table is one flat
// []int32 of definition IDs with per-row offsets. The collector scans
// none of it; the one pointer table is the instructions by ID. A build
// makes the same number of allocations however many definitions and
// uses the function has.
package ssa

import (
	"strconv"
	"strings"
	"sync"

	"fsicp/internal/dom"
	"fsicp/internal/ir"
	"fsicp/internal/sem"
)

// DefKind classifies a Definition.
type DefKind uint8

const (
	// DefEntry is the implicit definition of a variable at procedure
	// entry: the incoming formal value, the global's value at entry, or
	// an undefined local.
	DefEntry DefKind = iota
	// DefInstr is a definition created by an instruction.
	DefInstr
	// DefPhi is a φ-function.
	DefPhi
	// DefDeleted is the definition of a store DeleteStore removed. It
	// keeps its ID but defines nothing, has no uses and names no
	// instruction.
	DefDeleted
)

// None marks an absent index: no instruction or φ, an empty use list
// or its end, and a φ argument or operand slot no definition fills.
const None = -1

// Definition is one SSA definition of a variable. Its ID is its index
// in SSA.Defs. Edits change definitions in place and never add one.
type Definition struct {
	// Var is the variable's position in Fn.AllVars.
	Var int32
	// Block is the index of the defining block: the entry block for an
	// entry definition.
	Block int32
	// Site is the defining instruction's ID (DefInstr) or the φ's
	// position in Phis[Block] (DefPhi); None otherwise.
	Site int32
	// FirstUse heads the definition's use list in SSA.Uses (None when
	// it has no use); the list continues through Use.Next.
	FirstUse int32
	Kind     DefKind
}

// UseKind classifies a use site.
type UseKind uint8

const (
	UseInstr UseKind = iota // operand of an instruction
	UsePhi                  // operand of a φ
	UseTerm                 // operand of a terminator
)

// Use is one use site of a definition, a record in SSA.Uses. A
// definition's uses are listed in renaming order, operands in order;
// an edit's new use goes at the end.
type Use struct {
	// Block is the index of the block holding the use: the φ's block
	// for UsePhi.
	Block int32
	// Site is the using instruction's ID (UseInstr), the φ's position
	// in Phis[Block] (UsePhi), or Block (UseTerm).
	Site int32
	// PhiIx is which φ argument, i.e. which predecessor edge (UsePhi).
	PhiIx int32
	// Next is the definition's next use record, or None.
	Next int32
	Kind UseKind
}

// Phi is a φ-function for AllVars[Var] at the head of block Block; its
// arguments (SSA.PhiArgs) are parallel to the block's Preds.
type Phi struct {
	Def   int32
	Var   int32
	Block int32
	args  int32 // offset of the arguments in SSA.phiArgs
}

// table is a ragged array of definition IDs: row r is
// ids[off[r]:off[r+1]].
type table struct {
	ids []int32
	off []int32
}

// pack returns the table with row offsets off, in one allocation that
// holds the offsets and then the IDs.
func pack(off []int32) table {
	data := make([]int32, len(off)+int(off[len(off)-1]))
	copy(data, off)
	return table{ids: data[len(off):], off: data[:len(off):len(off)]}
}

func (t table) row(r int) []int32 {
	lo, hi := t.off[r], t.off[r+1]
	return t.ids[lo:hi:hi]
}

// SSA is the SSA overlay for one function.
type SSA struct {
	Fn  *ir.Func
	Dom *dom.Tree

	// Defs is every Definition, indexed by ID: the φs in placement
	// order, then the entry definitions in AllVars order, then the
	// instruction definitions in renaming order.
	Defs []Definition

	// Uses holds every use record; Definition.FirstUse and Use.Next
	// link each definition's list through it. Unlinked records stay
	// behind unreferenced.
	Uses []Use

	// EntryDefs[i] is the entry definition of Fn.AllVars[i], or None
	// once a grafted const took it over (GraftEntryConsts).
	EntryDefs []int32

	// Phis[b.Index] lists the φ-functions at the head of block b, in
	// AllVars order; every row shares one backing array.
	Phis    [][]Phi
	phiArgs []int32

	// instrs[id] is the instruction with ID id: Build's block-order
	// numbering, then the grafts. No edit renumbers or frees an ID.
	instrs []ir.Instr

	// Rows per instruction ID: useDefs holds the reaching definition of
	// each operand (read through UsesOf), instrDefs the definitions the
	// instruction creates (DefsOf), and globalsAtCall, for a call, the
	// reaching definition of each global of the segment just before it
	// (GlobalsAtCall). An edit that drops operands fills their slots
	// with None, which UsesOf trims. The rows of grafted consts past
	// the end of useDefs and globalsAtCall are empty and not stored.
	useDefs, instrDefs, globalsAtCall table
	// Rows per block index: termUses holds the reaching definitions of
	// the terminator's operands (TermUsesOf), and retSnaps, for a block
	// ending in a Ret, the reaching definition of every frame variable
	// at the return, slot k holding Fn.FrameVar(k) (RetSnapshot).
	termUses, retSnaps table
}

// Build constructs SSA form for fn.
//
// Build only reads the function: the IR builder and every mutation
// pass (via ir.RebuildCallLists) keep instruction numbering current,
// so concurrent builds over a shared program are safe. The renumbering
// fallback below fires for hand-assembled functions, and for a function
// the optimizer (which owns the program) grafted and then rebuilt the
// CFG of.
func Build(fn *ir.Func) *SSA {
	n := fn.NumInstrs
	if !fn.Numbered() {
		n = fn.NumberInstrs()
	}
	s := &SSA{Fn: fn, Dom: dom.New(fn)}
	b := builderPool.Get().(*builder)
	b.s = s
	b.size(n)
	b.placePhis()
	b.rename()
	clear(b.vars)
	b.s = nil
	builderPool.Put(b)
	return s
}

// builder is the scratch state of one Build. Nothing in it outlives
// the build, so it is pooled and sized once per function, and the
// overlay's own arrays are each allocated exactly once.
type builder struct {
	s    *SSA
	vars []*sem.Var // operand buffer, cleared before pooling
	// ords[k] is the AllVars position of the variable of instrDefs.ids[k].
	ords []int32
	// Row offsets of the tables being sized, copied into each table's
	// one allocation.
	useOff, defOff, callOff, termOff, retOff []int32
	// cur[vi] is the reaching definition of AllVars[vi] during renaming;
	// undo records what each push overwrote, to restore on leaving a
	// block.
	cur  []int32
	undo []varPair
	// Placement scratch: defBlocks[vi] lists the blocks defining
	// AllVars[vi] in reverse postorder; hasPhi/inWork are per-block
	// stamps; placed records each φ's (variable, block) in placement
	// order; perBlock counts and then fills each block's φs.
	defBlocks                      [][]int32
	hasPhi, inWork, work, perBlock []int32
	placed                         []varPair
}

// varPair pairs a variable position with a definition (an undo record)
// or a block (a φ placement).
type varPair struct{ v, d int32 }

var builderPool = sync.Pool{New: func() any { return new(builder) }}

// resize returns s with length n, reusing its backing array.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// size allocates every table from one pass over the function: rows for
// unreachable code stay empty, since renaming never visits it, and the
// variable of every instruction definition is looked up once, here.
func (b *builder) size(n int) {
	s, fn := b.s, b.s.Fn
	nb := len(fn.Blocks)
	ng, fl := len(fn.Globals()), fn.FrameLen()
	s.instrs = make([]ir.Instr, n)
	b.useOff, b.defOff, b.callOff = resize(b.useOff, n+1), resize(b.defOff, n+1), resize(b.callOff, n+1)
	b.termOff, b.retOff = resize(b.termOff, nb+1), resize(b.retOff, nb+1)
	b.useOff[0], b.defOff[0], b.callOff[0], b.termOff[0], b.retOff[0] = 0, 0, 0, 0, 0
	b.ords = b.ords[:0]
	var nu, nd, nc, nt, nr int32
	for _, blk := range fn.Blocks {
		live := s.Dom.Reachable(blk)
		for _, in := range blk.Instrs {
			id := in.InstrID()
			s.instrs[id] = in
			if live {
				b.vars = ir.AppendDefs(b.vars[:0], in)
				for _, v := range b.vars {
					b.ords = append(b.ords, int32(s.ord(v)))
				}
				nd += int32(len(b.vars))
				nu += int32(len(ir.AppendUses(b.vars[:0], in)))
				if _, ok := in.(*ir.CallInstr); ok {
					nc += int32(ng)
				}
			}
			b.useOff[id+1], b.defOff[id+1], b.callOff[id+1] = nu, nd, nc
		}
		if live && blk.Term != nil {
			if ir.TermOperand(blk.Term) != nil {
				nt++
			}
			if _, ok := blk.Term.(*ir.Ret); ok {
				nr += int32(fl)
			}
		}
		b.termOff[blk.Index+1], b.retOff[blk.Index+1] = nt, nr
	}
	s.useDefs, s.instrDefs, s.globalsAtCall = pack(b.useOff), pack(b.defOff), pack(b.callOff)
	s.termUses, s.retSnaps = pack(b.termOff), pack(b.retOff)
}

// placePhis places φ-functions on iterated dominance frontiers and
// creates their definitions, in placement order. As in Cytron et al.'s
// algorithm, the placed-φ and worklist marks are per-block stamps:
// hasPhi[b] and inWork[b] hold 1 + the variable that last placed a φ at
// b or last queued b, so they are never cleared between variables.
func (b *builder) placePhis() {
	s, fn := b.s, b.s.Fn
	nvars, nb := len(fn.AllVars), len(fn.Blocks)

	// The defining blocks of each variable, in reverse postorder.
	b.defBlocks = resize(b.defBlocks, nvars)
	for vi := range b.defBlocks {
		b.defBlocks[vi] = b.defBlocks[vi][:0]
	}
	for _, blk := range s.Dom.RPO {
		for _, in := range blk.Instrs {
			id := in.InstrID()
			for _, vi := range b.ords[s.instrDefs.off[id]:s.instrDefs.off[id+1]] {
				b.defBlocks[vi] = append(b.defBlocks[vi], int32(blk.Index))
			}
		}
	}

	b.hasPhi = resize(b.hasPhi, nb)
	b.inWork = resize(b.inWork, nb)
	clear(b.hasPhi)
	clear(b.inWork)
	b.perBlock = resize(b.perBlock, nb+1)
	clear(b.perBlock)
	b.placed = b.placed[:0]
	entry := int32(s.Dom.RPO[0].Index)
	for vi := 0; vi < nvars; vi++ {
		stamp := int32(vi) + 1
		work := append(b.work[:0], b.defBlocks[vi]...)
		// Every variable also has its entry definition in the entry
		// block.
		work = append(work, entry)
		for _, bi := range work {
			b.inWork[bi] = stamp
		}
		for len(work) > 0 {
			bi := work[len(work)-1]
			work = work[:len(work)-1]
			for _, f := range s.Dom.Frontier(fn.Blocks[bi]) {
				if b.hasPhi[f.Index] == stamp {
					continue
				}
				b.hasPhi[f.Index] = stamp
				b.placed = append(b.placed, varPair{int32(vi), int32(f.Index)})
				b.perBlock[f.Index+1]++
				if b.inWork[f.Index] != stamp {
					b.inWork[f.Index] = stamp
					work = append(work, int32(f.Index))
				}
			}
		}
		b.work = work
	}

	// One backing array for every block's φs, rows in AllVars order;
	// φ definitions take their IDs in placement order.
	for bi := 0; bi < nb; bi++ {
		b.perBlock[bi+1] += b.perBlock[bi]
	}
	all := make([]Phi, len(b.placed))
	s.Phis = make([][]Phi, nb)
	for bi := range s.Phis {
		if lo, hi := b.perBlock[bi], b.perBlock[bi+1]; lo < hi {
			s.Phis[bi] = all[lo:hi:hi]
		}
	}
	nargs := 0
	for _, p := range b.placed {
		nargs += len(fn.Blocks[p.d].Preds)
	}
	s.phiArgs = make([]int32, nargs)
	for k := range s.phiArgs {
		s.phiArgs[k] = None
	}
	s.Uses = make([]Use, 0, len(s.useDefs.ids)+len(s.termUses.ids)+nargs)
	s.Defs = make([]Definition, 0, len(b.placed)+nvars+len(s.instrDefs.ids))
	next := resize(b.work, nb)
	copy(next, b.perBlock[:nb])
	nargs = 0
	for _, p := range b.placed {
		k := next[p.d]
		next[p.d]++
		all[k] = Phi{Def: int32(len(s.Defs)), Var: p.v, Block: p.d, args: int32(nargs)}
		nargs += len(fn.Blocks[p.d].Preds)
		s.Defs = append(s.Defs, Definition{Var: p.v, Block: p.d, Site: k - b.perBlock[p.d], FirstUse: None, Kind: DefPhi})
	}
	b.work = next
}

// rename creates the entry definitions, then walks the dominator tree
// assigning reaching definitions, and finally links every use record
// into its definition's list.
func (b *builder) rename() {
	s, fn := b.s, b.s.Fn
	nvars := len(fn.AllVars)
	b.cur = resize(b.cur, nvars)
	s.EntryDefs = make([]int32, nvars)
	entry := int32(fn.Entry().Index)
	for vi := range fn.AllVars {
		d := s.newDef(Definition{Var: int32(vi), Block: entry, Site: None, FirstUse: None, Kind: DefEntry})
		s.EntryDefs[vi] = d
		b.cur[vi] = d
	}
	b.undo = b.undo[:0]
	b.walk(s.Dom.RPO[0])

	// While renaming, a record's Next holds its definition; threading
	// the records back to front lists each definition's uses in
	// renaming order.
	for u := len(s.Uses) - 1; u >= 0; u-- {
		d := &s.Defs[s.Uses[u].Next]
		s.Uses[u].Next, d.FirstUse = d.FirstUse, int32(u)
	}
}

// push makes d the reaching definition of AllVars[vi] until the
// current block's walk returns.
func (b *builder) push(vi, d int32) {
	b.undo = append(b.undo, varPair{vi, b.cur[vi]})
	b.cur[vi] = d
}

// use records a use of the reaching definition of AllVars[vi] and
// returns it.
func (b *builder) use(vi int, u Use) int32 {
	d := b.cur[vi]
	u.Next = d
	b.s.Uses = append(b.s.Uses, u)
	return d
}

func (b *builder) walk(blk *ir.Block) {
	s := b.s
	bi := int32(blk.Index)
	mark := len(b.undo)
	for _, phi := range s.Phis[bi] {
		b.push(phi.Var, phi.Def)
	}
	ng, off := len(s.Fn.Globals()), s.Fn.GlobalOffset()
	for _, in := range blk.Instrs {
		id := in.InstrID()
		row := s.useDefs.row(id)
		b.vars = ir.AppendUses(b.vars[:0], in)
		for k, v := range b.vars {
			row[k] = b.use(s.ord(v), Use{Kind: UseInstr, Block: bi, Site: int32(id)})
		}
		if _, ok := in.(*ir.CallInstr); ok && ng > 0 {
			copy(s.globalsAtCall.row(id), b.cur[off:off+ng])
		}
		lo := s.instrDefs.off[id]
		for k, vi := range b.ords[lo:s.instrDefs.off[id+1]] {
			d := s.newDef(Definition{Var: vi, Block: bi, Site: int32(id), FirstUse: None, Kind: DefInstr})
			s.instrDefs.ids[int(lo)+k] = d
			b.push(vi, d)
		}
	}
	if blk.Term != nil {
		if v := ir.TermOperand(blk.Term); v != nil {
			s.termUses.row(int(bi))[0] = b.use(s.ord(v), Use{Kind: UseTerm, Block: bi, Site: bi})
		}
		if _, isRet := blk.Term.(*ir.Ret); isRet {
			snap := s.retSnaps.row(int(bi))
			for k := range snap {
				snap[k] = b.cur[s.Fn.FrameOrd(k)]
			}
		}
	}
	for _, succ := range blk.Succs {
		pi := predIndex(succ, blk)
		for k, phi := range s.Phis[succ.Index] {
			s.phiArgs[int(phi.args)+pi] = b.use(int(phi.Var), Use{Kind: UsePhi, Block: int32(succ.Index), Site: int32(k), PhiIx: int32(pi)})
		}
	}
	for _, c := range s.Dom.Children(blk) {
		b.walk(c)
	}
	for i := len(b.undo) - 1; i >= mark; i-- {
		b.cur[b.undo[i].v] = b.undo[i].d
	}
	b.undo = b.undo[:mark]
}

func (s *SSA) newDef(d Definition) int32 {
	s.Defs = append(s.Defs, d)
	return int32(len(s.Defs) - 1)
}

// ord returns v's AllVars position. An untracked variable means modref
// never installed the global segment, which the panic names.
func (s *SSA) ord(v *sem.Var) int {
	i := s.Fn.VarOrd(v)
	if i < 0 {
		panic("ssa: " + s.Fn.Proc.Name + " does not track " + v.Name + " (modref installs the global segment)")
	}
	return i
}

func predIndex(b *ir.Block, pred *ir.Block) int {
	for i, p := range b.Preds {
		if p == pred {
			return i
		}
	}
	panic("ssa: predecessor not found")
}

// UsesOf returns the reaching definitions of in's operands (parallel
// to in.Uses()), or nil for an instruction outside this overlay.
func (s *SSA) UsesOf(in ir.Instr) []int32 {
	id := in.InstrID()
	if id < 0 || id+1 >= len(s.useDefs.off) {
		return nil
	}
	row := s.useDefs.row(id)
	for len(row) > 0 && row[len(row)-1] == None {
		row = row[:len(row)-1]
	}
	return row
}

// DefsOf returns the definitions in creates (parallel to in.Defs()),
// or nil for an instruction outside this overlay.
func (s *SSA) DefsOf(in ir.Instr) []int32 {
	id := in.InstrID()
	if id < 0 || id >= len(s.instrs) {
		return nil
	}
	return s.instrDefs.row(id)
}

// TermUsesOf returns the reaching definitions of b.Term's operands
// (parallel to b.Term.Uses()).
func (s *SSA) TermUsesOf(b *ir.Block) []int32 { return s.termUses.row(b.Index) }

// GlobalsAtCall returns, per position in Fn's global segment, the
// reaching definition of that global just before call.
func (s *SSA) GlobalsAtCall(call *ir.CallInstr) []int32 {
	return s.globalsAtCall.row(call.InstrID())
}

// RetSnapshot returns, for a block ending in a reachable Ret, the
// reaching definition of every frame variable at the return: slot k
// holds Fn.FrameVar(k)'s. It is empty for any other block.
func (s *SSA) RetSnapshot(b *ir.Block) []int32 { return s.retSnaps.row(b.Index) }

// PhiArgs returns p's arguments, parallel to its block's Preds; None
// marks a predecessor renaming never reached.
func (s *SSA) PhiArgs(p *Phi) []int32 {
	n := len(s.Fn.Blocks[p.Block].Preds)
	return s.phiArgs[p.args : int(p.args)+n : int(p.args)+n]
}

// Instr returns the instruction with ID id.
func (s *SSA) Instr(id int32) ir.Instr { return s.instrs[id] }

// Var returns definition d's variable.
func (s *SSA) Var(d int32) *sem.Var { return s.Fn.AllVars[s.Defs[d].Var] }

// Name renders definition d as variable@ID.
func (s *SSA) Name(d int32) string {
	if d == None {
		return "?"
	}
	return s.Var(d).String() + "@" + strconv.Itoa(int(d))
}

func (s *SSA) names(ds []int32) string {
	parts := make([]string, len(ds))
	for i, d := range ds {
		parts[i] = s.Name(d)
	}
	return strings.Join(parts, ", ")
}

// Dump renders the SSA overlay for debugging.
func (s *SSA) Dump() string {
	var b strings.Builder
	b.WriteString("ssa " + s.Fn.Proc.Name + ":\n")
	for _, blk := range s.Dom.RPO {
		b.WriteString(blk.String() + ":\n")
		for k := range s.Phis[blk.Index] {
			phi := &s.Phis[blk.Index][k]
			b.WriteString("  " + s.Name(phi.Def) + " = phi(" + s.names(s.PhiArgs(phi)) + ")\n")
		}
		for _, in := range blk.Instrs {
			b.WriteString("  " + in.String())
			if uds := s.UsesOf(in); len(uds) > 0 {
				b.WriteString(" ; uses " + s.names(uds))
			}
			if ids := s.DefsOf(in); len(ids) > 0 {
				b.WriteString(" ; defs " + s.names(ids))
			}
			b.WriteByte('\n')
		}
		if blk.Term != nil {
			b.WriteString("  " + blk.Term.String() + "\n")
		}
	}
	return b.String()
}
