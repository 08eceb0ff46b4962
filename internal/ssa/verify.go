package ssa

import (
	"fmt"

	"fsicp/internal/ir"
)

// Verify checks the structural invariants of the SSA overlay and
// returns every violation found (empty means well-formed):
//
//   - every use's reaching definition is a definition of the same
//     variable;
//   - every instruction-use definition dominates the using
//     instruction's block (or is in the same block, defined earlier);
//   - every φ argument's definition dominates the corresponding
//     predecessor block;
//   - every definition registered for an instruction matches the
//     instruction's Defs() list;
//   - def-use back edges are consistent (every recorded use points
//     back to a definition that lists it).
//
// It exists because dominance-based SSA construction bugs are silent:
// the constant propagator would still run, just on wrong def-use
// chains. The property tests verify every randomly generated program.
func (s *SSA) Verify() []string {
	var bad []string
	report := func(format string, args ...any) {
		bad = append(bad, fmt.Sprintf(format, args...))
	}
	blocks := s.Fn.Blocks

	// Blocks and block positions of instructions for same-block
	// ordering checks.
	instrBlock := make(map[ir.Instr]*ir.Block)
	instrPos := make(map[ir.Instr]int)
	for _, b := range s.Dom.RPO {
		for i, in := range b.Instrs {
			instrBlock[in] = b
			instrPos[in] = i
		}
	}

	defPos := func(d int32) (blk *ir.Block, pos int) {
		switch def := s.Defs[d]; def.Kind {
		case DefEntry:
			return s.Dom.RPO[0], -2 // before everything
		case DefPhi:
			return blocks[def.Block], -1 // φs precede instructions
		default:
			return blocks[def.Block], instrPos[s.instrs[def.Site]]
		}
	}

	// dominatesUse: definition d must dominate a use at (b, pos).
	dominatesUse := func(d int32, b *ir.Block, pos int) bool {
		db, dp := defPos(d)
		if db == b {
			return dp < pos
		}
		return s.Dom.Dominates(db, b)
	}

	// Only reachable instructions are renamed, so walk the RPO rather
	// than the (dense, whole-function) overlay tables.
	for _, b := range s.Dom.RPO {
		for _, in := range b.Instrs {
			uds := s.UsesOf(in)
			uses := in.Uses()
			if len(uses) != len(uds) {
				report("%s: %d uses but %d reaching defs", in, len(uses), len(uds))
				continue
			}
			for k, d := range uds {
				if s.Var(d) != uses[k] {
					report("%s: use %d of %s resolved to def of %s", in, k, uses[k], s.Var(d))
				}
				if !dominatesUse(d, b, instrPos[in]) {
					report("%s: def %s does not dominate use", in, s.Name(d))
				}
			}
		}
	}

	for _, b := range s.Dom.RPO {
		for _, in := range b.Instrs {
			ids := s.DefsOf(in)
			defs := in.Defs()
			if len(defs) != len(ids) {
				report("%s: %d defs but %d definitions", in, len(defs), len(ids))
				continue
			}
			for k, d := range ids {
				if s.Var(d) != defs[k] {
					report("%s: def %d of %s registered as %s", in, k, defs[k], s.Var(d))
				}
				if def := s.Defs[d]; def.Kind != DefInstr || s.instrs[def.Site] != in || blocks[def.Block] != b {
					report("%s: def %d not linked back to instruction", in, k)
				}
			}
		}
	}

	for _, b := range s.Dom.RPO {
		for k := range s.Phis[b.Index] {
			phi := &s.Phis[b.Index][k]
			if def := s.Defs[phi.Def]; def.Kind != DefPhi || def.Var != phi.Var || int(def.Block) != b.Index || int(def.Site) != k {
				report("phi %s in %s: definition not linked back", s.Name(phi.Def), b)
			}
			for i, a := range s.PhiArgs(phi) {
				pred := b.Preds[i]
				if !s.Dom.Reachable(pred) {
					continue // argument from unreachable predecessor is unconstrained
				}
				if a == None {
					report("phi %s in %s: no arg %d from reachable pred %s", s.Name(phi.Def), b, i, pred)
					continue
				}
				if s.Defs[a].Var != phi.Var {
					report("phi %s: arg %d is a def of %s", s.Name(phi.Def), i, s.Var(a))
				}
				// The arg's def must dominate the end of the predecessor.
				db, _ := defPos(a)
				if db != pred && !s.Dom.Dominates(db, pred) {
					report("phi %s: arg %d def %s does not dominate pred %s", s.Name(phi.Def), i, s.Name(a), pred)
				}
			}
		}
		// Terminator uses.
		tds := s.TermUsesOf(b)
		if b.Term != nil {
			uses := b.Term.Uses()
			if len(uses) != len(tds) {
				report("%s terminator: %d uses, %d defs", b, len(uses), len(tds))
			} else {
				for k, d := range tds {
					if s.Var(d) != uses[k] {
						report("%s terminator: use %d mismatched", b, k)
					}
					if !dominatesUse(d, b, len(b.Instrs)) {
						report("%s terminator: def %s does not dominate", b, s.Name(d))
					}
				}
			}
		}
	}

	// Def-use back-edge consistency.
	contains := func(ds []int32, d int32) bool {
		for _, x := range ds {
			if x == d {
				return true
			}
		}
		return false
	}
	for d := range s.Defs {
		d := int32(d)
		for u := s.Defs[d].FirstUse; u != None; u = s.Uses[u].Next {
			switch r := s.Uses[u]; r.Kind {
			case UseInstr:
				if in := s.instrs[r.Site]; !contains(s.UsesOf(in), d) || blocks[r.Block] != instrBlock[in] {
					report("def %s lists use in %s not recorded there", s.Name(d), in)
				}
			case UsePhi:
				if s.PhiArgs(&s.Phis[r.Block][r.Site])[r.PhiIx] != d {
					report("def %s lists phi use %d not recorded", s.Name(d), r.PhiIx)
				}
			case UseTerm:
				if !contains(s.TermUsesOf(blocks[r.Block]), d) {
					report("def %s lists terminator use in %s not recorded", s.Name(d), blocks[r.Block])
				}
			}
		}
	}
	return bad
}
