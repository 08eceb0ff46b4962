package ssa

import (
	"slices"

	"fsicp/internal/ir"
)

// This file lets transformation passes edit instructions in place
// while keeping the overlay's def-use tables consistent, so the whole
// pipeline (fold, copy propagation, dead-store elimination, CSE, LICM)
// composes on one overlay instead of rebuilding SSA between passes.
//
// The contract throughout: an edit leaves the overlay equal to what
// Build would make of the edited function, up to definition and
// instruction IDs, and the definitions it keeps are reused — their IDs,
// lattice values, and use lists survive. An instruction ID is a stable
// handle, as a value ID is in Go's own SSA backend: no edit renumbers.
// A rewritten instruction keeps its ID (ir.SetInstrID) and takes its
// predecessor's slot in the instruction table; a grafted one takes the
// next ID past the end, with its rows at the tail of the instruction
// tables; a deleted one leaves a tombstone; a hoisted const keeps its
// ID and only its definition's block changes. The function is
// renumbered once, after the last pass, when the overlay is dropped.
// A use an edit removes is unlinked from its list in place, and one it
// adds goes at the end, so every list keeps the order a fresh build
// would give the uses it shares with it. Only a pass that changes the
// CFG itself (branch folding) must rebuild.
//
// The two edits that change which definitions exist are exact by
// SSA's path property: every use sees the last definition on every
// path to it.
//
//   - A const at the head of the entry block is the last definition of
//     its variable on every path from entry, so it reaches exactly what
//     the entry definition reached (GraftEntryConsts). φ placement does
//     not change, because the entry block already seeds every
//     variable's placement.
//   - A store with no uses, φ arguments included, is never the last
//     definition on a path to any use or φ, so deleting it moves no φ
//     and no reaching definition (DeleteStore).
//
// HoistConst is exact only up to φs; see there.

// link appends u to d's use list.
func (s *SSA) link(d int32, u Use) {
	u.Next = None
	s.Uses = append(s.Uses, u)
	p := &s.Defs[d].FirstUse
	for *p != None {
		p = &s.Uses[*p].Next
	}
	*p = int32(len(s.Uses) - 1)
}

// unlink removes d's first use record of the given kind and site.
func (s *SSA) unlink(d int32, kind UseKind, site int32) {
	for p := &s.Defs[d].FirstUse; *p != None; p = &s.Uses[*p].Next {
		if u := &s.Uses[*p]; u.Kind == kind && u.Site == site {
			*p = u.Next
			return
		}
	}
}

// detach unlinks every operand use of the instruction numbered id and
// empties its operand row.
func (s *SSA) detach(id int) {
	if id+1 >= len(s.useDefs.off) {
		return // a graft: no operands
	}
	row := s.useDefs.row(id)
	for k, d := range row {
		if d != None {
			s.unlink(d, UseInstr, int32(id))
		}
		row[k] = None
	}
}

// RewriteToConst replaces b.Instrs[idx] — a single-def instruction —
// with nc, transferring the instruction ID and the dst Definition. The
// old instruction's operand uses are unlinked; the definition keeps its
// ID, value, and uses.
func (s *SSA) RewriteToConst(b *ir.Block, idx int, nc *ir.ConstInstr) {
	old := b.Instrs[idx]
	id := old.InstrID()
	s.detach(id)
	ir.SetInstrID(nc, id)
	s.instrs[id] = nc
	b.Instrs[idx] = nc
}

// RewriteToCopy replaces b.Instrs[idx] — a single-def instruction with
// at least one operand — with the copy nc, whose source operand's
// reaching definition is src.
func (s *SSA) RewriteToCopy(b *ir.Block, idx int, nc *ir.CopyInstr, src int32) {
	old := b.Instrs[idx]
	id := old.InstrID()
	row := s.useDefs.row(id)
	if len(row) == 0 {
		panic("ssa: RewriteToCopy of an instruction without operands")
	}
	s.detach(id)
	ir.SetInstrID(nc, id)
	s.instrs[id] = nc
	row[0] = src
	s.link(src, Use{Kind: UseInstr, Block: int32(b.Index), Site: int32(id)})
	b.Instrs[idx] = nc
}

// ReplaceUseOperand redirects in's k-th operand (located in block b) to
// read nd's variable, with nd as its reaching definition. The caller
// must have established that nd's value equals the old operand's on
// every path reaching the use (copy propagation's validity condition).
func (s *SSA) ReplaceUseOperand(b *ir.Block, in ir.Instr, k int, nd int32) {
	id := in.InstrID()
	row := s.useDefs.row(id)
	s.unlink(row[k], UseInstr, int32(id))
	ir.SetUse(in, k, s.Var(nd))
	row[k] = nd
	s.link(nd, Use{Kind: UseInstr, Block: int32(b.Index), Site: int32(id)})
}

// ReplaceTermOperand is ReplaceUseOperand for b's terminator.
func (s *SSA) ReplaceTermOperand(b *ir.Block, k int, nd int32) {
	row, bi := s.termUses.row(b.Index), int32(b.Index)
	s.unlink(row[k], UseTerm, bi)
	ir.SetTermUse(b.Term, k, s.Var(nd))
	row[k] = nd
	s.link(nd, Use{Kind: UseTerm, Block: bi, Site: bi})
}

// GraftEntryConsts inserts consts, in order, at the head of the entry
// block, each assigning a distinct tracked variable. Each takes over its
// variable's entry definition: that Definition becomes the const's, with
// its ID and uses — every operand, φ argument and call or return
// snapshot it reached — kept. Nothing can read the variable's entry
// value any more, so its EntryDefs slot becomes None; a fresh build
// would give it an entry definition with no uses. The consts take the
// instruction IDs past the end, and their rows go at the tail of the
// instruction tables: the definition taken over, and the empty rows of
// their operands and call snapshot, which are not stored. The
// entry block must have no predecessors (the IR builder never branches
// back to it), so no φ there could shadow a graft.
func (s *SSA) GraftEntryConsts(consts []*ir.ConstInstr) {
	n := len(consts)
	if n == 0 {
		return
	}
	eb := s.Fn.Entry()
	if len(eb.Preds) > 0 {
		panic("ssa: graft into an entry block with predecessors")
	}
	s.instrs = grow(s.instrs, n)
	s.instrDefs.ids = grow(s.instrDefs.ids, n)
	s.instrDefs.off = grow(s.instrDefs.off, n)
	eb.Instrs = grow(eb.Instrs, n)[:len(eb.Instrs)+n]
	copy(eb.Instrs[n:], eb.Instrs)
	for k, c := range consts {
		vi := s.ord(c.Dst)
		d := s.EntryDefs[vi]
		s.EntryDefs[vi] = None
		id := len(s.instrs)
		ir.SetInstrID(c, id)
		s.instrs = append(s.instrs, c)
		s.instrDefs.ids = append(s.instrDefs.ids, d)
		s.instrDefs.off = append(s.instrDefs.off, int32(len(s.instrDefs.ids)))
		s.Defs[d].Kind, s.Defs[d].Site = DefInstr, int32(id)
		eb.Instrs[k] = c
	}
}

// grow returns s with room for n more elements, moved into an array of
// exactly that size when it has no room.
func grow[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	return append(make([]T, 0, len(s)+n), s...)
}

// DeleteStore deletes in, a single-definition instruction whose
// definition has no uses: it unlinks in's operand uses and leaves a
// tombstone, the definition marked DefDeleted with no instruction. The
// instruction stays in its block until Compact, so a pass deleting
// many stores compacts each block once; its ID is never reused.
func (s *SSA) DeleteStore(in ir.Instr) {
	id := in.InstrID()
	ds := s.instrDefs.row(id)
	if len(ds) != 1 || s.Defs[ds[0]].FirstUse != None {
		panic("ssa: DeleteStore of an instruction that is not a dead store")
	}
	s.detach(id)
	s.Defs[ds[0]].Kind, s.Defs[ds[0]].Site = DefDeleted, None
}

// Compact removes the stores DeleteStore deleted from their blocks, in
// one pass over the reachable blocks.
func (s *SSA) Compact() {
	deleted := func(in ir.Instr) bool {
		ds := s.instrDefs.row(in.InstrID())
		return len(ds) == 1 && s.Defs[ds[0]].Kind == DefDeleted
	}
	for _, b := range s.Dom.RPO {
		b.Instrs = slices.DeleteFunc(b.Instrs, deleted)
	}
}

// HoistConst moves c, a const of block from, to the end of block to,
// which must dominate from. The const keeps its ID; only its
// definition's block changes, since a const has no operand uses.
//
// It is exact only up to the variable's φs, which stay where the old
// block put them: for LICM's hoists, the last edit of the pipeline.
// Their variable has no other real definition and its entry value
// reaches no instruction or terminator use, even through φs, so no φ of
// it reaches one, here or in a fresh build, and every other use reads
// the const in both.
func (s *SSA) HoistConst(c *ir.ConstInstr, from, to *ir.Block) {
	i := slices.Index(from.Instrs, ir.Instr(c))
	from.Instrs = slices.Delete(from.Instrs, i, i+1)
	to.Instrs = append(to.Instrs, c)
	s.Defs[s.instrDefs.row(c.InstrID())[0]].Block = int32(to.Index)
}
