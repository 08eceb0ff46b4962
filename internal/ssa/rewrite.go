package ssa

import "fsicp/internal/ir"

// This file lets transformation passes edit instructions in place
// while keeping the overlay's def-use tables consistent, so the whole
// pipeline (fold, copy propagation, dead-store elimination, CSE, LICM)
// composes on one overlay instead of rebuilding SSA between passes.
//
// The contract throughout: an edit leaves the overlay equal to what
// Build would make of the edited function, up to definition IDs, and
// the *Definition objects it keeps are reused — their IDs, lattice
// values, and use lists survive. A rewritten instruction keeps its dense
// InstrID (ir.TransferID); grafts and deletions renumber the function
// and remap the ID-indexed tables (RenumberInstrs). Only a pass that
// changes the CFG itself (branch folding) must rebuild.
//
// The two edits that add or remove definitions are exact by SSA's path
// property: every use sees the last definition on every path to it.
//
//   - A const at the head of the entry block is the last definition of
//     its variable on every path from entry, so it reaches exactly what
//     the entry definition reached (GraftEntryConsts). φ placement does
//     not change, because the entry block already seeds every
//     variable's placement.
//   - A store with no uses, φ arguments included, is never the last
//     definition on a path to any use or φ, so deleting it moves no φ
//     and no reaching definition (DeleteStore).

// removeInstrUse deletes one use record of in from d's use list.
func removeInstrUse(d *Definition, in ir.Instr) {
	for i, u := range d.Uses {
		if u.Kind == UseInstr && u.Instr == in {
			d.Uses = append(d.Uses[:i], d.Uses[i+1:]...)
			return
		}
	}
}

// removeTermUse deletes one terminator use record in block b from d's
// use list.
func removeTermUse(d *Definition, b *ir.Block) {
	for i, u := range d.Uses {
		if u.Kind == UseTerm && u.Block == b {
			d.Uses = append(d.Uses[:i], d.Uses[i+1:]...)
			return
		}
	}
}

// detachOperands unlinks every operand use of b.Instrs[idx] and returns
// the instruction and its ID. Shared prologue of the RewriteTo* pair.
func (s *SSA) detachOperands(b *ir.Block, idx int) (ir.Instr, int) {
	old := b.Instrs[idx]
	id := old.InstrID()
	for _, d := range s.useDefs[id] {
		removeInstrUse(d, old)
	}
	return old, id
}

// RewriteToConst replaces b.Instrs[idx] — a single-def instruction —
// with nc, transferring the instruction ID and the dst Definition. The
// old instruction's operand uses are unlinked; the definition keeps its
// ID, value, and uses.
func (s *SSA) RewriteToConst(b *ir.Block, idx int, nc *ir.ConstInstr) {
	old, id := s.detachOperands(b, idx)
	ir.TransferID(old, nc)
	s.useDefs[id] = nil
	d := s.instrDefs[id][0]
	d.Instr = nc
	d.DefIdx = 0
	b.Instrs[idx] = nc
}

// RewriteToCopy replaces b.Instrs[idx] — a single-def instruction —
// with the copy nc, whose source operand's reaching definition is src.
func (s *SSA) RewriteToCopy(b *ir.Block, idx int, nc *ir.CopyInstr, src *Definition) {
	old, id := s.detachOperands(b, idx)
	ir.TransferID(old, nc)
	s.useDefs[id] = []*Definition{src}
	src.Uses = append(src.Uses, Use{Kind: UseInstr, Instr: nc, Block: b})
	d := s.instrDefs[id][0]
	d.Instr = nc
	d.DefIdx = 0
	b.Instrs[idx] = nc
}

// ReplaceUseOperand redirects in's k-th operand (located in block b) to
// read nd's variable, with nd as its reaching definition. The caller
// must have established that nd's value equals the old operand's on
// every path reaching the use (copy propagation's validity condition).
func (s *SSA) ReplaceUseOperand(b *ir.Block, in ir.Instr, k int, nd *Definition) {
	id := in.InstrID()
	removeInstrUse(s.useDefs[id][k], in)
	ir.SetUse(in, k, nd.Var)
	s.useDefs[id][k] = nd
	nd.Uses = append(nd.Uses, Use{Kind: UseInstr, Instr: in, Block: b})
}

// ReplaceTermOperand is ReplaceUseOperand for b's terminator.
func (s *SSA) ReplaceTermOperand(b *ir.Block, k int, nd *Definition) {
	removeTermUse(s.TermUses[b.Index][k], b)
	ir.SetTermUse(b.Term, k, nd.Var)
	s.TermUses[b.Index][k] = nd
	nd.Uses = append(nd.Uses, Use{Kind: UseTerm, Block: b})
}

// GraftEntryConsts inserts consts, in order, at the head of the entry
// block, each assigning a distinct tracked variable. Each takes over its
// variable's entry definition: that Definition becomes the const's, with
// its ID and uses — every operand, φ argument and call or return
// snapshot it reached — kept, and a fresh entry definition with no uses
// replaces it in EntryDefs. The entry block must have no predecessors
// (the IR builder never branches back to it), so no φ there could
// shadow a graft.
func (s *SSA) GraftEntryConsts(consts []*ir.ConstInstr) {
	if len(consts) == 0 {
		return
	}
	eb := s.Fn.Entry()
	if len(eb.Preds) > 0 {
		panic("ssa: graft into an entry block with predecessors")
	}
	instrs := make([]ir.Instr, 0, len(consts)+len(eb.Instrs))
	for _, c := range consts {
		instrs = append(instrs, c)
	}
	eb.Instrs = append(instrs, eb.Instrs...)
	s.RenumberInstrs()

	fresh := make([]Definition, len(consts))
	taken := make([]*Definition, len(consts))
	for k, c := range consts {
		vi := s.ord(c.Dst)
		d := s.EntryDefs[vi]
		d.Kind, d.Block, d.Instr, d.DefIdx = DefInstr, eb, c, 0
		taken[k] = d
		s.instrDefs[c.InstrID()] = taken[k : k+1 : k+1]
		fresh[k] = Definition{ID: len(s.Defs), Var: c.Dst, Kind: DefEntry}
		s.Defs = append(s.Defs, &fresh[k])
		s.EntryDefs[vi] = &fresh[k]
	}
}

// DeleteStore deletes in, a single-definition instruction whose
// definition has no uses: it unlinks in's operand uses and marks the
// definition DefDeleted. The instruction leaves its block at the next
// RenumberInstrs, so a pass deleting many stores renumbers once.
func (s *SSA) DeleteStore(in ir.Instr) {
	id := in.InstrID()
	ds := s.instrDefs[id]
	if len(ds) != 1 || len(ds[0].Uses) != 0 {
		panic("ssa: DeleteStore of an instruction that is not a dead store")
	}
	for _, d := range s.useDefs[id] {
		removeInstrUse(d, in)
	}
	s.useDefs[id] = nil
	ds[0].Kind = DefDeleted
}

// RenumberInstrs renumbers the function after instructions moved
// between blocks (LICM), were grafted (GraftEntryConsts) or were deleted
// (DeleteStore), and remaps the three ID-indexed tables from the old IDs
// in one pass. A deleted instruction leaves its block here; an
// unnumbered one (just grafted) gets empty rows. The CFG must be
// unchanged, and every moved Definition's Block field must already
// point at its new home.
func (s *SSA) RenumberInstrs() {
	n := 0
	for _, b := range s.Fn.Blocks {
		n += len(b.Instrs)
	}
	useDefs := make([][]*Definition, n)
	instrDefs := make([][]*Definition, n)
	globalsAtCall := make([][]*Definition, n)
	n = 0
	for _, b := range s.Fn.Blocks {
		kept := b.Instrs[:0]
		for _, in := range b.Instrs {
			if id := in.InstrID(); id >= 0 && id < len(s.useDefs) {
				if ds := s.instrDefs[id]; len(ds) == 1 && ds[0].Kind == DefDeleted {
					continue
				}
				useDefs[n], instrDefs[n], globalsAtCall[n] = s.useDefs[id], s.instrDefs[id], s.globalsAtCall[id]
			}
			kept = append(kept, in)
			n++
		}
		clear(b.Instrs[len(kept):])
		b.Instrs = kept
	}
	s.useDefs, s.instrDefs, s.globalsAtCall = useDefs[:n], instrDefs[:n], globalsAtCall[:n]
	s.Fn.NumberInstrs()
}
