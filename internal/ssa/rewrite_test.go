package ssa_test

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"fsicp/internal/ir"
	"fsicp/internal/progen"
	"fsicp/internal/sem"
	"fsicp/internal/ssa"
	"fsicp/internal/testutil"
	"fsicp/internal/val"
)

// rewriteSrc has a binary expression whose operands are a variable and
// a materialised literal temp, plus a copy — raw material for each
// rewrite primitive.
const rewriteSrc = `program p
proc main() {
  var a int
  var b int
  var c int
  read a
  b = a
  c = b + 3
  print c
}`

// findBinary returns the block, index, and instruction of the first
// BinaryInstr in f.
func findBinary(t *testing.T, f *ir.Func) (*ir.Block, int, *ir.BinaryInstr) {
	t.Helper()
	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			if bi, ok := in.(*ir.BinaryInstr); ok {
				return b, i, bi
			}
		}
	}
	t.Fatalf("no binary instruction:\n%s", f.Dump())
	return nil, 0, nil
}

func mustVerify(t *testing.T, s *ssa.SSA, when string) {
	t.Helper()
	if probs := s.Verify(); len(probs) != 0 {
		t.Fatalf("%s: overlay inconsistent:\n  %s\n%s", when, strings.Join(probs, "\n  "), s.Dump())
	}
}

func TestRewriteToConst(t *testing.T) {
	p := testutil.MustBuild(t, rewriteSrc)
	f := testutil.FuncByName(t, p, "main")
	s := ssa.Build(f)
	mustVerify(t, s, "before")

	b, idx, bi := findBinary(t, f)
	operands := slices.Clone(s.UsesOf(bi)) // the rewrite empties the row in place
	oldID := bi.InstrID()
	d := s.DefsOf(bi)[0]

	nc := &ir.ConstInstr{Dst: bi.Defs()[0], Val: val.Int(5)}
	s.RewriteToConst(b, idx, nc)
	mustVerify(t, s, "after RewriteToConst")

	if b.Instrs[idx] != nc {
		t.Fatal("instruction not replaced in block")
	}
	if nc.InstrID() != oldID {
		t.Errorf("InstrID not transferred: got %d want %d", nc.InstrID(), oldID)
	}
	if s.Instr(s.Defs[d].Site) != nc || len(s.DefsOf(nc)) != 1 || s.DefsOf(nc)[0] != d {
		t.Error("definition not re-pointed at the new instruction")
	}
	// The old operand defs must no longer list the rewritten
	// instruction as a use.
	for _, od := range operands {
		for _, u := range usesOf(s, od) {
			if u.Kind == ssa.UseInstr && s.Instr(u.Site) == ir.Instr(nc) {
				t.Errorf("stale use of %s survived the rewrite", s.Name(od))
			}
		}
	}
	if n := len(s.UsesOf(nc)); n != 0 {
		t.Errorf("const instruction has %d operand defs, want 0", n)
	}
}

func TestRewriteToCopy(t *testing.T) {
	p := testutil.MustBuild(t, rewriteSrc)
	f := testutil.FuncByName(t, p, "main")
	s := ssa.Build(f)

	b, idx, bi := findBinary(t, f)
	a := testutil.VarByName(t, f, "a")
	// Source definition: the read of a (its only non-entry def).
	src := defOfIn(s, f.Entry(), a)
	if src == ssa.None {
		t.Fatalf("no def of a:\n%s", s.Dump())
	}

	nc := &ir.CopyInstr{Dst: bi.Defs()[0], Src: a}
	s.RewriteToCopy(b, idx, nc, src)
	mustVerify(t, s, "after RewriteToCopy")

	uds := s.UsesOf(nc)
	if len(uds) != 1 || uds[0] != src {
		t.Fatalf("copy operand defs = %v, want [def of a]", uds)
	}
	found := false
	for _, u := range usesOf(s, src) {
		if u.Kind == ssa.UseInstr && s.Instr(u.Site) == ir.Instr(nc) {
			found = true
		}
	}
	if !found {
		t.Error("source def does not list the new copy as a use")
	}
}

func TestReplaceUseOperand(t *testing.T) {
	p := testutil.MustBuild(t, rewriteSrc)
	f := testutil.FuncByName(t, p, "main")
	s := ssa.Build(f)

	b, _, bi := findBinary(t, f)
	a := testutil.VarByName(t, f, "a")
	src := defOfIn(s, f.Entry(), a)
	old := s.UsesOf(bi)[0] // def of b (the copy b = a)

	// Simulate copy propagation: c = b + 3 becomes c = a + 3.
	s.ReplaceUseOperand(b, bi, 0, src)
	mustVerify(t, s, "after ReplaceUseOperand")

	if got := s.UsesOf(bi)[0]; got != src {
		t.Fatalf("operand 0 def = %v, want def of a", s.Name(got))
	}
	if bi.X != a {
		t.Errorf("IR operand not rewritten: %v", bi.X)
	}
	for _, u := range usesOf(s, old) {
		if u.Kind == ssa.UseInstr && s.Instr(u.Site) == ir.Instr(bi) {
			t.Error("old operand def still lists the instruction as a use")
		}
	}
}

// defOfIn returns the last definition of v made in block b, or
// ssa.None.
func defOfIn(s *ssa.SSA, b *ir.Block, v *sem.Var) int32 {
	src := int32(ssa.None)
	for _, in := range b.Instrs {
		for _, d := range s.DefsOf(in) {
			if s.Var(d) == v {
				src = d
			}
		}
	}
	return src
}

func TestRenumberInstrs(t *testing.T) {
	p := testutil.MustBuild(t, `program p
proc main() {
  var i int
  var s int
  i = 0
  s = 0
  while (i < 4) {
    s = s + 2
    i = i + 1
  }
  print s
}`)
	f := testutil.FuncByName(t, p, "main")
	s := ssa.Build(f)
	mustVerify(t, s, "before")

	// Move the first loop-body instruction into the entry block (an
	// LICM-shaped motion), then renumber.
	var from *ir.Block
	for _, b := range f.Blocks {
		if b != f.Entry() && len(b.Instrs) > 0 {
			if _, ok := b.Instrs[0].(*ir.ConstInstr); ok {
				from = b
				break
			}
		}
	}
	if from == nil {
		t.Skipf("no const to move:\n%s", f.Dump())
	}
	moved := from.Instrs[0]
	from.Instrs = from.Instrs[1:]
	f.Entry().Instrs = append(f.Entry().Instrs, moved)

	s.RenumberInstrs()
	mustVerify(t, s, "after RenumberInstrs")

	// IDs must be dense and block-ordered again.
	want := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.InstrID() != want {
				t.Fatalf("instruction %v has id %d, want %d", in, in.InstrID(), want)
			}
			want++
		}
	}
	// Dense tables must still resolve the moved instruction, and its
	// definition must live in its new block.
	if d := s.DefsOf(moved); len(d) != 1 || s.Instr(s.Defs[d[0]].Site) != moved || int(s.Defs[d[0]].Block) != f.Entry().Index {
		t.Error("moved instruction lost its definition mapping")
	}
}

// TestInPlaceEditsMatchBuild grafts entry constants and deletes every
// dead store in place, on every procedure of TestVerifyRandomPrograms's
// generated programs and of every testdata program, and compares the
// edited overlay with a fresh Build of the edited function after each
// step. Definitions are matched by kind, variable, and defining
// instruction or φ block, since their IDs differ.
func TestInPlaceEditsMatchBuild(t *testing.T) {
	var names, srcs []string
	for seed := int64(700); seed < 740; seed++ {
		names = append(names, fmt.Sprintf("seed %d", seed))
		srcs = append(srcs, progen.Generate(progen.Config{Seed: seed, AllowRecursion: seed%2 == 0, AllowFloats: true}))
	}
	files, err := filepath.Glob("../../testdata/programs/*.mf")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs: %v", err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, filepath.Base(file))
		srcs = append(srcs, string(src))
	}
	total := 0
	for i, src := range srcs {
		for _, fn := range testutil.MustPrepare(t, src).Funcs {
			where := names[i] + ", " + fn.Proc.Name
			s := ssa.Build(fn)
			// Graft every other tracked variable: formals and globals as
			// fold does, and locals and temps, whose grafts are dead
			// stores below.
			var consts []*ir.ConstInstr
			for vi, v := range fn.AllVars {
				if vi%2 == 0 {
					consts = append(consts, &ir.ConstInstr{Dst: v, Val: val.Int(int64(vi))})
				}
			}
			s.GraftEntryConsts(consts)
			matchBuild(t, where+", after the graft", s)

			deleted := 0
			for again := true; again; {
				again = false
				for _, b := range s.Dom.RPO {
					for _, in := range b.Instrs {
						if isDeadStore(s, in) {
							s.DeleteStore(in)
							deleted++
							again = true
						}
					}
				}
			}
			s.RenumberInstrs()
			matchBuild(t, fmt.Sprintf("%s, after %d deletions", where, deleted), s)
			total += deleted
		}
	}
	if total == 0 {
		t.Fatal("no dead store was deleted")
	}
}

// isDeadStore reports a pure single-definition instruction whose local
// or temporary destination is never read.
func isDeadStore(s *ssa.SSA, in ir.Instr) bool {
	switch in.(type) {
	case *ir.ConstInstr, *ir.CopyInstr, *ir.UnaryInstr, *ir.BinaryInstr:
	default:
		return false
	}
	if k := in.Defs()[0].Kind; k != sem.KindLocal && k != sem.KindTemp {
		return false
	}
	d := s.DefsOf(in)[0]
	return s.Defs[d].Kind == ssa.DefInstr && s.Defs[d].FirstUse == ssa.None
}

// defKey identifies a definition independently of its ID.
type defKey struct {
	kind  ssa.DefKind
	v     *sem.Var
	in    ir.Instr
	idx   int
	block int32
}

func keyOf(s *ssa.SSA, d int32) defKey {
	if d == ssa.None {
		return defKey{kind: 255}
	}
	def := s.Defs[d]
	k := defKey{kind: def.Kind, v: s.Var(d)}
	switch def.Kind {
	case ssa.DefInstr:
		k.in = s.Instr(def.Site)
		k.idx = slices.Index(s.DefsOf(k.in), d)
	case ssa.DefPhi:
		k.block = def.Block
	}
	return k
}

// matchBuild fails unless s, an edited overlay, equals a fresh Build of
// its function: the same live definitions with the same use counts,
// entry definitions, reaching definitions of every operand, terminator
// operand and φ argument, call snapshots, and every slot of the return
// snapshots, each row exactly FrameLen long, and a clean Verify.
func matchBuild(t *testing.T, where string, s *ssa.SSA) {
	t.Helper()
	mustVerify(t, s, where)
	fresh := ssa.Build(s.Fn)
	fn := s.Fn
	same := func(what string, got, want int32) {
		t.Helper()
		if keyOf(s, got) != keyOf(fresh, want) {
			t.Fatalf("%s: %s reached by %v, a fresh build by %v", where, what, s.Name(got), fresh.Name(want))
		}
	}

	uses := make(map[defKey]int)
	for d := range s.Defs {
		if s.Defs[d].Kind != ssa.DefDeleted {
			uses[keyOf(s, int32(d))] = len(usesOf(s, int32(d)))
		}
	}
	for d := range fresh.Defs {
		d := int32(d)
		n, ok := uses[keyOf(fresh, d)]
		if !ok {
			t.Fatalf("%s: a fresh build defines %v, the edited overlay does not", where, fresh.Name(d))
		}
		if want := len(usesOf(fresh, d)); n != want {
			t.Fatalf("%s: %v has %d uses, %d in a fresh build", where, fresh.Name(d), n, want)
		}
		delete(uses, keyOf(fresh, d))
	}
	if len(uses) != 0 {
		t.Fatalf("%s: the edited overlay has %d definitions a fresh build lacks", where, len(uses))
	}
	for vi := range fn.AllVars {
		same("entry of "+fn.AllVars[vi].Name, s.EntryDefs[vi], fresh.EntryDefs[vi])
	}

	for _, b := range fresh.Dom.RPO {
		if len(s.Phis[b.Index]) != len(fresh.Phis[b.Index]) {
			t.Fatalf("%s: %s has %d φs, %d in a fresh build", where, b, len(s.Phis[b.Index]), len(fresh.Phis[b.Index]))
		}
		for k := range fresh.Phis[b.Index] {
			phi, got := &fresh.Phis[b.Index][k], &s.Phis[b.Index][k]
			same(fmt.Sprintf("φ %d of %s", k, b), got.Def, phi.Def)
			for a, arg := range fresh.PhiArgs(phi) {
				same(fmt.Sprintf("argument %d of %v", a, fresh.Name(phi.Def)), s.PhiArgs(got)[a], arg)
			}
		}
		for _, in := range b.Instrs {
			for k, d := range fresh.UsesOf(in) {
				same(fmt.Sprintf("operand %d of %s", k, in), s.UsesOf(in)[k], d)
			}
			if call, ok := in.(*ir.CallInstr); ok {
				for gi, g := range fn.Globals() {
					same(g.Name+" at "+call.String(), s.GlobalsAtCall(call)[gi], fresh.GlobalsAtCall(call)[gi])
				}
			}
		}
		for k, d := range fresh.TermUsesOf(b) {
			same(fmt.Sprintf("terminator operand %d of %s", k, b), s.TermUsesOf(b)[k], d)
		}
		if _, ok := b.Term.(*ir.Ret); ok {
			snap := fresh.RetSnapshot(b)
			if got := len(s.RetSnapshot(b)); got != fn.FrameLen() || len(snap) != fn.FrameLen() {
				t.Fatalf("%s: the return snapshot of %s has %d slots, a fresh build's %d, the frame %d", where, b, got, len(snap), fn.FrameLen())
			}
			for k, d := range snap {
				same(fn.FrameVar(k).Name+" at the return of "+b.String(), s.RetSnapshot(b)[k], d)
			}
		}
	}
}
