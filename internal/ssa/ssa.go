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
package ssa

import (
	"strconv"
	"strings"

	"fsicp/internal/dom"
	"fsicp/internal/ir"
	"fsicp/internal/sem"
)

// DefKind classifies a Definition.
type DefKind int

const (
	// DefEntry is the implicit definition of a variable at procedure
	// entry: the incoming formal value, the global's value at entry, or
	// an undefined local.
	DefEntry DefKind = iota
	// DefInstr is a definition created by an instruction.
	DefInstr
	// DefPhi is a φ-function.
	DefPhi
)

// Definition is one SSA definition of a variable.
type Definition struct {
	ID    int
	Var   *sem.Var
	Kind  DefKind
	Block *ir.Block // nil for entry defs (conceptually the entry block)

	// Instr is the defining instruction (DefInstr only) and DefIdx its
	// position within Instr.Defs().
	Instr  ir.Instr
	DefIdx int

	// Phi is set for DefPhi.
	Phi *Phi

	// Uses lists every use site of this definition.
	Uses []Use
}

func (d *Definition) String() string {
	return d.Var.String() + "@" + strconv.Itoa(d.ID)
}

// Phi is a φ-function for Var at the head of Block; Args is parallel to
// Block.Preds.
type Phi struct {
	Def   *Definition
	Var   *sem.Var
	Block *ir.Block
	Args  []*Definition
}

// UseKind classifies a use site.
type UseKind int

const (
	UseInstr UseKind = iota // operand of an instruction
	UsePhi                  // operand of a φ
	UseTerm                 // operand of a terminator
)

// Use is one use site of a definition.
type Use struct {
	Kind  UseKind
	Instr ir.Instr  // UseInstr
	Phi   *Phi      // UsePhi
	PhiIx int       // which φ argument (i.e. which predecessor edge)
	Block *ir.Block // UseTerm and UsePhi; for UseInstr, the instr's block
}

// SSA is the SSA overlay for one function.
type SSA struct {
	Fn  *ir.Func
	Dom *dom.Tree

	// EntryDefs[i] is the entry definition of Fn.AllVars[i].
	EntryDefs []*Definition

	// Phis[b.Index] lists the φ-functions at the head of block b.
	Phis [][]*Phi

	// useDefs[instr.InstrID()][k] is the reaching definition of
	// instr.Uses()[k]; read it through UsesOf.
	useDefs [][]*Definition

	// instrDefs[instr.InstrID()][k] is the Definition for
	// instr.Defs()[k]; read it through DefsOf.
	instrDefs [][]*Definition

	// TermUses[b.Index][k] is the reaching definition of
	// b.Term.Uses()[k].
	TermUses [][]*Definition

	// globalsAtCall[call.InstrID()] holds, per global-segment offset,
	// the reaching definition of that tracked global immediately before
	// the call; read it through GlobalAtCall.
	globalsAtCall [][]*Definition

	// RetSnapshots[b.Index], for a block ending in a Ret, holds the
	// reaching definition of every variable (indexed like Fn.AllVars)
	// at the return point (nil for non-return blocks). The
	// return-constant extension reads formal and global exit values
	// from it.
	RetSnapshots [][]*Definition

	// Defs is every Definition, indexed by ID.
	Defs []*Definition

	// defArena holds every Definition of the overlay in one allocation,
	// sized by Build before the first is made, so building one
	// procedure's overlay does not cost an allocation per definition.
	// Definitions escape into the overlay (Defs, tables), so the arena
	// lives exactly as long as the SSA itself.
	defArena []Definition
	// defBacking is sliced out to the per-instruction use/def tables;
	// one backing array replaces two small slice allocations per
	// instruction.
	defBacking []*Definition
}

// Build constructs SSA form for fn.
//
// Build only reads the function: the IR builder and every mutation
// pass (via ir.RebuildCallLists) keep instruction numbering current,
// so concurrent builds over a shared program are safe. The renumbering
// fallback below fires only for hand-assembled functions that never
// went through those paths.
func Build(fn *ir.Func) *SSA {
	n := fn.NumInstrs
	if !fn.Numbered() {
		n = fn.NumberInstrs()
	}
	s := &SSA{
		Fn:            fn,
		Dom:           dom.New(fn),
		useDefs:       make([][]*Definition, n),
		instrDefs:     make([][]*Definition, n),
		globalsAtCall: make([][]*Definition, n),
	}
	s.Phis = make([][]*Phi, len(fn.Blocks))
	s.TermUses = make([][]*Definition, len(fn.Blocks))
	s.RetSnapshots = make([][]*Definition, len(fn.Blocks))

	// Size the definition arena and the pointer backing array from one
	// pre-pass. The arena holds Definitions (φs, entry defs, instruction
	// defs), the backing array holds the per-instruction def/use pointer
	// tables. The pre-pass counts every block and rename visits only the
	// reachable ones, so neither ever grows.
	defSlots := len(fn.AllVars) // entry defs
	ptrSlots := 0
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			nd := len(in.Defs())
			defSlots += nd
			ptrSlots += nd + len(in.Uses())
			if _, ok := in.(*ir.CallInstr); ok {
				ptrSlots += len(fn.Globals())
			}
		}
		if b.Term != nil {
			ptrSlots += len(b.Term.Uses())
			if _, isRet := b.Term.(*ir.Ret); isRet {
				ptrSlots += len(fn.AllVars)
			}
		}
	}
	s.defBacking = make([]*Definition, 0, ptrSlots)

	// φ definitions are created once placement has counted them, so
	// the arena is sized for every definition up front.
	phis := s.placePhis()
	s.defArena = make([]Definition, 0, defSlots+len(phis))
	s.Defs = make([]*Definition, 0, defSlots+len(phis))
	for _, phi := range phis {
		phi.Def = s.newDef(phi.Var, DefPhi)
		phi.Def.Phi, phi.Def.Block = phi, phi.Block
	}
	s.rename()
	s.defBacking = nil
	return s
}

func (s *SSA) newDef(v *sem.Var, kind DefKind) *Definition {
	if len(s.defArena) == cap(s.defArena) {
		// Growing would move the Definitions already handed out.
		panic("ssa: definition arena undersized")
	}
	s.defArena = append(s.defArena, Definition{ID: len(s.Defs), Var: v, Kind: kind})
	d := &s.defArena[len(s.defArena)-1]
	s.Defs = append(s.Defs, d)
	return d
}

// slice carves a fresh n-slot slice out of the shared backing array.
func (s *SSA) slice(n int) []*Definition {
	if n == 0 {
		return nil
	}
	off := len(s.defBacking)
	s.defBacking = s.defBacking[:off+n]
	return s.defBacking[off : off+n : off+n]
}

// UsesOf returns the reaching definitions of in's operands (parallel
// to in.Uses()), or nil for an instruction outside this overlay.
func (s *SSA) UsesOf(in ir.Instr) []*Definition {
	id := in.InstrID()
	if id < 0 || id >= len(s.useDefs) {
		return nil
	}
	return s.useDefs[id]
}

// DefsOf returns the definitions in creates (parallel to in.Defs()),
// or nil for an instruction outside this overlay.
func (s *SSA) DefsOf(in ir.Instr) []*Definition {
	id := in.InstrID()
	if id < 0 || id >= len(s.instrDefs) {
		return nil
	}
	return s.instrDefs[id]
}

// placePhis inserts φ-functions using iterated dominance frontiers and
// returns them in placement order, without definitions yet. As in
// Cytron et al.'s algorithm, the placed-φ and worklist marks are
// per-block stamps: hasPhi[b] and inWork[b] hold 1 + the variable that
// last placed a φ at b or last queued b, so they are never cleared
// between variables.
func (s *SSA) placePhis() []*Phi {
	fn := s.Fn
	nvars := len(fn.AllVars)
	defBlocks := make([][]*ir.Block, nvars)
	for _, b := range s.Dom.RPO {
		for _, in := range b.Instrs {
			for _, v := range in.Defs() {
				i := s.ord(v)
				defBlocks[i] = append(defBlocks[i], b)
			}
		}
	}
	hasPhi := make([]int32, len(fn.Blocks))
	inWork := make([]int32, len(fn.Blocks))
	var work []*ir.Block
	var placed []*Phi
	for vi := 0; vi < nvars; vi++ {
		stamp := int32(vi) + 1
		work = append(work[:0], defBlocks[vi]...)
		// Every variable also has its entry definition in the entry
		// block.
		work = append(work, s.Dom.RPO[0])
		for _, b := range work {
			inWork[b.Index] = stamp
		}
		for len(work) > 0 {
			b := work[len(work)-1]
			work = work[:len(work)-1]
			for _, f := range s.Dom.Frontier(b) {
				if hasPhi[f.Index] == stamp {
					continue
				}
				hasPhi[f.Index] = stamp
				phi := &Phi{Var: fn.AllVars[vi], Block: f, Args: make([]*Definition, len(f.Preds))}
				placed = append(placed, phi)
				s.Phis[f.Index] = append(s.Phis[f.Index], phi)
				if inWork[f.Index] != stamp {
					inWork[f.Index] = stamp
					work = append(work, f)
				}
			}
		}
	}
	return placed
}

// rename walks the dominator tree assigning reaching definitions.
func (s *SSA) rename() {
	fn := s.Fn
	nvars := len(fn.AllVars)
	globals, off := fn.Globals(), fn.GlobalOffset()
	stacks := make([][]*Definition, nvars)

	s.EntryDefs = make([]*Definition, nvars)
	for i, v := range fn.AllVars {
		d := s.newDef(v, DefEntry)
		s.EntryDefs[i] = d
		stacks[i] = append(stacks[i], d)
	}

	var walk func(b *ir.Block)
	walk = func(b *ir.Block) {
		pushed := make([]int, 0, 8)
		push := func(d *Definition) {
			vi := s.ord(d.Var)
			stacks[vi] = append(stacks[vi], d)
			pushed = append(pushed, vi)
		}
		top := func(v *sem.Var) *Definition {
			st := stacks[s.ord(v)]
			return st[len(st)-1]
		}

		for _, phi := range s.Phis[b.Index] {
			phi.Def.Block = b
			push(phi.Def)
		}
		for _, in := range b.Instrs {
			id := in.InstrID()
			uses := in.Uses()
			uds := s.slice(len(uses))
			for k, v := range uses {
				d := top(v)
				uds[k] = d
				d.Uses = append(d.Uses, Use{Kind: UseInstr, Instr: in, Block: b})
			}
			s.useDefs[id] = uds

			if _, ok := in.(*ir.CallInstr); ok && len(globals) > 0 {
				snap := s.slice(len(globals))
				for gi, st := range stacks[off : off+len(globals)] {
					snap[gi] = st[len(st)-1]
				}
				s.globalsAtCall[id] = snap
			}

			defs := in.Defs()
			ids := s.slice(len(defs))
			for k, v := range defs {
				d := s.newDef(v, DefInstr)
				d.Instr = in
				d.DefIdx = k
				d.Block = b
				ids[k] = d
				push(d)
			}
			s.instrDefs[id] = ids
		}
		if b.Term != nil {
			uses := b.Term.Uses()
			tds := s.slice(len(uses))
			for k, v := range uses {
				d := top(v)
				tds[k] = d
				d.Uses = append(d.Uses, Use{Kind: UseTerm, Block: b})
			}
			s.TermUses[b.Index] = tds
			if _, isRet := b.Term.(*ir.Ret); isRet {
				snap := s.slice(nvars)
				for vi, st := range stacks {
					snap[vi] = st[len(st)-1]
				}
				s.RetSnapshots[b.Index] = snap
			}
		}
		for _, succ := range b.Succs {
			pi := predIndex(succ, b)
			for _, phi := range s.Phis[succ.Index] {
				d := top(phi.Var)
				phi.Args[pi] = d
				d.Uses = append(d.Uses, Use{Kind: UsePhi, Phi: phi, PhiIx: pi, Block: succ})
			}
		}
		for _, c := range s.Dom.Children(b) {
			walk(c)
		}
		for i := len(pushed) - 1; i >= 0; i-- {
			vi := pushed[i]
			stacks[vi] = stacks[vi][:len(stacks[vi])-1]
		}
	}
	walk(s.Dom.RPO[0])
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

// EntryDef returns the entry definition of v.
func (s *SSA) EntryDef(v *sem.Var) *Definition {
	return s.EntryDefs[s.Fn.VarOrd(v)]
}

// GlobalAtCall returns the reaching definition of global g just before
// call. g must be in Fn's global segment.
func (s *SSA) GlobalAtCall(call *ir.CallInstr, g *sem.Var) *Definition {
	return s.globalsAtCall[call.InstrID()][s.Fn.VarOrd(g)-s.Fn.GlobalOffset()]
}

// Dump renders the SSA overlay for debugging.
func (s *SSA) Dump() string {
	var b strings.Builder
	b.WriteString("ssa " + s.Fn.Proc.Name + ":\n")
	for _, blk := range s.Dom.RPO {
		b.WriteString(blk.String() + ":\n")
		for _, phi := range s.Phis[blk.Index] {
			args := make([]string, len(phi.Args))
			for i, a := range phi.Args {
				if a == nil {
					args[i] = "?"
				} else {
					args[i] = a.String()
				}
			}
			b.WriteString("  " + phi.Def.String() + " = phi(" + strings.Join(args, ", ") + ")\n")
		}
		for _, in := range blk.Instrs {
			b.WriteString("  " + in.String())
			if uds := s.UsesOf(in); len(uds) > 0 {
				parts := make([]string, len(uds))
				for i, d := range uds {
					parts[i] = d.String()
				}
				b.WriteString(" ; uses " + strings.Join(parts, ","))
			}
			if ids := s.DefsOf(in); len(ids) > 0 {
				parts := make([]string, len(ids))
				for i, d := range ids {
					parts[i] = d.String()
				}
				b.WriteString(" ; defs " + strings.Join(parts, ","))
			}
			b.WriteByte('\n')
		}
		if blk.Term != nil {
			b.WriteString("  " + blk.Term.String() + "\n")
		}
	}
	return b.String()
}
