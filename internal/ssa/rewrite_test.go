package ssa_test

import (
	"fmt"
	"os"
	"path/filepath"
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
	operands := s.UsesOf(bi)
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
	if d.Instr != nc || len(s.DefsOf(nc)) != 1 || s.DefsOf(nc)[0] != d {
		t.Error("definition not re-pointed at the new instruction")
	}
	// The old operand defs must no longer list the rewritten
	// instruction as a use.
	for _, od := range operands {
		for _, u := range od.Uses {
			if u.Kind == ssa.UseInstr && u.Instr == ir.Instr(nc) {
				t.Errorf("stale use of %s survived the rewrite", od)
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
	var src *ssa.Definition
	for _, in := range f.Entry().Instrs {
		for _, d := range s.DefsOf(in) {
			if d.Var == a {
				src = d
			}
		}
	}
	if src == nil {
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
	for _, u := range src.Uses {
		if u.Kind == ssa.UseInstr && u.Instr == ir.Instr(nc) {
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
	var src *ssa.Definition
	for _, in := range f.Entry().Instrs {
		for _, d := range s.DefsOf(in) {
			if d.Var == a {
				src = d
			}
		}
	}
	old := s.UsesOf(bi)[0] // def of b (the copy b = a)

	// Simulate copy propagation: c = b + 3 becomes c = a + 3.
	s.ReplaceUseOperand(b, bi, 0, src)
	mustVerify(t, s, "after ReplaceUseOperand")

	if got := s.UsesOf(bi)[0]; got != src {
		t.Fatalf("operand 0 def = %v, want def of a", got)
	}
	if bi.X != a {
		t.Errorf("IR operand not rewritten: %v", bi.X)
	}
	for _, u := range old.Uses {
		if u.Kind == ssa.UseInstr && u.Instr == ir.Instr(bi) {
			t.Error("old operand def still lists the instruction as a use")
		}
	}
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
	s.DefsOf(moved)[0].Block = f.Entry()

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
	// Dense tables must still resolve the moved instruction.
	if d := s.DefsOf(moved); len(d) != 1 || d[0].Instr != moved {
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
	return d.Kind == ssa.DefInstr && len(d.Uses) == 0
}

// defKey identifies a definition independently of its ID.
type defKey struct {
	kind  ssa.DefKind
	v     *sem.Var
	in    ir.Instr
	idx   int
	block *ir.Block
}

func keyOf(d *ssa.Definition) defKey {
	if d == nil {
		return defKey{kind: -1}
	}
	k := defKey{kind: d.Kind, v: d.Var}
	switch d.Kind {
	case ssa.DefInstr:
		k.in, k.idx = d.Instr, d.DefIdx
	case ssa.DefPhi:
		k.block = d.Block
	}
	return k
}

// matchBuild fails unless s, an edited overlay, equals a fresh Build of
// its function: the same live definitions with the same use counts,
// entry definitions, reaching definitions of every operand, terminator
// operand and φ argument, call snapshots, and formal and global slots of
// the return snapshots (a deleted local store may stay in its slot), and
// a clean Verify.
func matchBuild(t *testing.T, where string, s *ssa.SSA) {
	t.Helper()
	mustVerify(t, s, where)
	fresh := ssa.Build(s.Fn)
	fn := s.Fn
	same := func(what string, got, want *ssa.Definition) {
		t.Helper()
		if keyOf(got) != keyOf(want) {
			t.Fatalf("%s: %s reached by %v, a fresh build by %v", where, what, got, want)
		}
	}

	uses := make(map[defKey]int)
	for _, d := range s.Defs {
		if d.Kind != ssa.DefDeleted {
			uses[keyOf(d)] = len(d.Uses)
		}
	}
	for _, d := range fresh.Defs {
		n, ok := uses[keyOf(d)]
		if !ok {
			t.Fatalf("%s: a fresh build defines %v, the edited overlay does not", where, d)
		}
		if n != len(d.Uses) {
			t.Fatalf("%s: %v has %d uses, %d in a fresh build", where, d, n, len(d.Uses))
		}
		delete(uses, keyOf(d))
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
		for k, phi := range fresh.Phis[b.Index] {
			same(fmt.Sprintf("φ %d of %s", k, b), s.Phis[b.Index][k].Def, phi.Def)
			for a, arg := range phi.Args {
				same(fmt.Sprintf("argument %d of %v", a, phi.Def), s.Phis[b.Index][k].Args[a], arg)
			}
		}
		for _, in := range b.Instrs {
			for k, d := range fresh.UsesOf(in) {
				same(fmt.Sprintf("operand %d of %s", k, in), s.UsesOf(in)[k], d)
			}
			if call, ok := in.(*ir.CallInstr); ok {
				for _, g := range fn.Globals() {
					same(g.Name+" at "+call.String(), s.GlobalAtCall(call, g), fresh.GlobalAtCall(call, g))
				}
			}
		}
		for k, d := range fresh.TermUses[b.Index] {
			same(fmt.Sprintf("terminator operand %d of %s", k, b), s.TermUses[b.Index][k], d)
		}
		if snap := fresh.RetSnapshots[b.Index]; snap != nil {
			for vi, v := range fn.AllVars {
				if v.Kind == sem.KindFormal || v.IsGlobal() {
					same(v.Name+" at the return of "+b.String(), s.RetSnapshots[b.Index][vi], snap[vi])
				}
			}
		}
	}
}
