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
// Build would make of the edited function, up to definition IDs, and
// the definitions it keeps are reused — their IDs, lattice values, and
// use lists survive. Every edit works by ID: a rewritten instruction
// keeps its dense InstrID (ir.TransferID) and takes its predecessor's
// slot in the instruction table; grafts and deletions renumber the
// function and remap the ID-indexed tables, the definitions'
// instruction IDs and blocks, and the instruction use records
// (RenumberInstrs). A use an edit removes is unlinked from its list in
// place, and one it adds goes at the end, so every list keeps the order
// a fresh build would give the uses it shares with it. Only a pass that
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
	ir.TransferID(old, nc)
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
	ir.TransferID(old, nc)
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
	taken := make([]int32, len(consts))
	instrs := make([]ir.Instr, 0, len(consts)+len(eb.Instrs))
	s.Defs = slices.Grow(s.Defs, len(consts))
	for k, c := range consts {
		vi := s.ord(c.Dst)
		taken[k] = s.EntryDefs[vi]
		s.Defs[taken[k]].Kind = DefInstr
		s.EntryDefs[vi] = s.newDef(Definition{Var: int32(vi), Block: int32(eb.Index), Site: None, FirstUse: None, Kind: DefEntry})
		instrs = append(instrs, c)
	}
	eb.Instrs = append(instrs, eb.Instrs...)
	s.renumber(taken)
}

// DeleteStore deletes in, a single-definition instruction whose
// definition has no uses: it unlinks in's operand uses and marks the
// definition DefDeleted. The instruction leaves its block at the next
// RenumberInstrs, so a pass deleting many stores renumbers once.
func (s *SSA) DeleteStore(in ir.Instr) {
	id := in.InstrID()
	ds := s.instrDefs.row(id)
	if len(ds) != 1 || s.Defs[ds[0]].FirstUse != None {
		panic("ssa: DeleteStore of an instruction that is not a dead store")
	}
	s.detach(id)
	s.Defs[ds[0]].Kind = DefDeleted
}

// RenumberInstrs renumbers the function after instructions moved
// between blocks (LICM) or were deleted (DeleteStore), and remaps the
// ID-indexed tables from the old IDs in one pass: a deleted instruction
// leaves its block, and every definition and use record of a kept one
// takes its new ID and block. The CFG must be unchanged.
func (s *SSA) RenumberInstrs() { s.renumber(nil) }

// renumber is RenumberInstrs for a function whose entry block may also
// start with grafted, unnumbered instructions: the k-th of them defines
// grafted[k].
func (s *SSA) renumber(grafted []int32) {
	most := len(s.instrs) + len(grafted)
	instrs := make([]ir.Instr, 0, most)
	blockOf := make([]int32, 0, most)
	moved := make([]int32, len(s.instrs)) // old ID → new ID
	useDefs := table{make([]int32, 0, len(s.useDefs.ids)), make([]int32, 1, most+1)}
	instrDefs := table{make([]int32, 0, len(s.instrDefs.ids)+len(grafted)), make([]int32, 1, most+1)}
	globals := table{make([]int32, 0, len(s.globalsAtCall.ids)), make([]int32, 1, most+1)}
	for _, b := range s.Fn.Blocks {
		kept := b.Instrs[:0]
		for _, in := range b.Instrs {
			n := len(instrs)
			if id, ok := s.numbered(in); !ok {
				instrDefs.ids = append(instrDefs.ids, grafted[0])
				grafted = grafted[1:]
			} else if s.deleted(id) {
				s.Defs[s.instrDefs.row(id)[0]].Site = None
				continue
			} else {
				moved[id] = int32(n)
				useDefs.ids = append(useDefs.ids, s.UsesOf(in)...)
				instrDefs.ids = append(instrDefs.ids, s.instrDefs.row(id)...)
				globals.ids = append(globals.ids, s.globalsAtCall.row(id)...)
			}
			for _, d := range instrDefs.ids[instrDefs.off[n]:] {
				s.Defs[d].Site, s.Defs[d].Block = int32(n), int32(b.Index)
			}
			instrs, blockOf = append(instrs, in), append(blockOf, int32(b.Index))
			useDefs.off = append(useDefs.off, int32(len(useDefs.ids)))
			instrDefs.off = append(instrDefs.off, int32(len(instrDefs.ids)))
			globals.off = append(globals.off, int32(len(globals.ids)))
			kept = append(kept, in)
		}
		clear(b.Instrs[len(kept):])
		b.Instrs = kept
	}
	// Every instruction use record is linked from some definition.
	for d := range s.Defs {
		for u := s.Defs[d].FirstUse; u != None; u = s.Uses[u].Next {
			if r := &s.Uses[u]; r.Kind == UseInstr {
				r.Site = moved[r.Site]
				r.Block = blockOf[r.Site]
			}
		}
	}
	s.instrs, s.useDefs, s.instrDefs, s.globalsAtCall = instrs, useDefs, instrDefs, globals
	s.Fn.NumberInstrs()
}

// numbered returns in's ID when the overlay numbered in, and false for
// an instruction grafted since.
func (s *SSA) numbered(in ir.Instr) (int, bool) {
	id := in.InstrID()
	return id, id >= 0 && id < len(s.instrs) && s.instrs[id] == in
}

// deleted reports whether DeleteStore removed the instruction
// numbered id.
func (s *SSA) deleted(id int) bool {
	ds := s.instrDefs.row(id)
	return len(ds) == 1 && s.Defs[ds[0]].Kind == DefDeleted
}
