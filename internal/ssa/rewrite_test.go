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

// loopSrc has a while loop whose header and body hold literal temps,
// consts LICM may hoist, and a local x whose one definition, a const,
// it must not hoist: x's entry value is printed on the first trip.
const loopSrc = `program p
proc main() {
  var i int
  var s int
  var x int
  i = 0
  s = 0
  while (i < 4) {
    print x
    s = s + 2
    i = i + 1
    x = 5
  }
  print s
}`

func TestHoistConst(t *testing.T) {
	p := testutil.MustBuild(t, loopSrc)
	f := testutil.FuncByName(t, p, "main")
	s := ssa.Build(f)
	mustVerify(t, s, "before")

	hoists := hoistLoopConsts(s)
	if len(hoists) == 0 {
		t.Fatalf("no const to hoist:\n%s", f.Dump())
	}
	for _, h := range hoists {
		d := s.DefsOf(h.c)
		if h.c.InstrID() != h.id || s.Instr(int32(h.id)) != ir.Instr(h.c) {
			t.Errorf("%s: ID %d, want %d kept", h.c, h.c.InstrID(), h.id)
		}
		if len(d) != 1 || s.Defs[d[0]].Site != int32(h.id) || int(s.Defs[d[0]].Block) != h.to.Index {
			t.Errorf("%s: definition not moved to %s", h.c, h.to)
		}
		if slices.Index(h.to.Instrs, ir.Instr(h.c)) < 0 || slices.Index(h.from.Instrs, ir.Instr(h.c)) >= 0 {
			t.Errorf("%s: not moved from %s to %s", h.c, h.from, h.to)
		}
	}
	matchBuild(t, "after the hoists", s, hoistedVars(hoists))
}

// hoist records one HoistConst move.
type hoist struct {
	c        *ir.ConstInstr
	id       int
	from, to *ir.Block
}

// hoistLoopConsts hoists, as LICM does, every const of a loop header or
// latch that meets LICM's conditions into the header's immediate
// dominator: its variable is a local or temporary with exactly one real
// definition, and its entry definition reaches no instruction or
// terminator use, even through φs.
func hoistLoopConsts(s *ssa.SSA) []hoist {
	var out []hoist
	for _, b := range s.Dom.RPO {
		for _, h := range b.Succs {
			pre := s.Dom.Idom(h)
			if !s.Dom.Dominates(h, b) || pre == nil {
				continue
			}
			for _, from := range []*ir.Block{h, b} {
				for _, in := range slices.Clone(from.Instrs) {
					c, ok := in.(*ir.ConstInstr)
					if !ok || (c.Dst.Kind != sem.KindLocal && c.Dst.Kind != sem.KindTemp) {
						continue
					}
					vi := s.Defs[s.DefsOf(c)[0]].Var
					if realDefs(s, vi) != 1 || reachesRealUse(s, s.EntryDefs[vi], map[int32]bool{}) {
						continue
					}
					out = append(out, hoist{c, c.InstrID(), from, pre})
					s.HoistConst(c, from, pre)
				}
			}
		}
	}
	return out
}

func hoistedVars(hs []hoist) map[*sem.Var]bool {
	vs := make(map[*sem.Var]bool)
	for _, h := range hs {
		vs[h.c.Dst] = true
	}
	return vs
}

// realDefs counts the instruction definitions of AllVars[vi].
func realDefs(s *ssa.SSA, vi int32) int {
	n := 0
	for _, d := range s.Defs {
		if d.Kind == ssa.DefInstr && d.Var == vi {
			n++
		}
	}
	return n
}

// reachesRealUse reports whether d flows to an instruction or
// terminator use, following φ chains.
func reachesRealUse(s *ssa.SSA, d int32, seen map[int32]bool) bool {
	if d == ssa.None || seen[d] {
		return false
	}
	seen[d] = true
	for _, u := range usesOf(s, d) {
		if u.Kind != ssa.UsePhi || reachesRealUse(s, s.Phis[u.Block][u.Site].Def, seen) {
			return true
		}
	}
	return false
}

// TestInPlaceEditsMatchBuild makes every edit the optimizer's passes
// make, on every procedure of TestVerifyRandomPrograms's generated
// programs and of every testdata program, with no renumbering between
// edits, and compares the edited overlay with a fresh Build of the
// edited function after each step: the graft of entry constants;
// rewrites to constants and copies and operand replacements; the
// deletion of every dead store, then compaction; and the hoist of every
// loop const that meets LICM's conditions.
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
	names = append(names, "loop")
	srcs = append(srcs, loopSrc)
	var rewrites, deleted, hoisted int
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
			matchBuild(t, where+", after the graft", s, nil)

			n := rewriteAll(s)
			matchBuild(t, fmt.Sprintf("%s, after %d rewrites", where, n), s, nil)
			rewrites += n

			n = 0
			for again := true; again; {
				again = false
				for _, b := range s.Dom.RPO {
					for _, in := range b.Instrs {
						if isDeadStore(s, in) {
							s.DeleteStore(in)
							n++
							again = true
						}
					}
				}
			}
			s.Compact()
			matchBuild(t, fmt.Sprintf("%s, after %d deletions", where, n), s, nil)
			deleted += n

			hs := hoistLoopConsts(s)
			matchBuild(t, fmt.Sprintf("%s, after %d hoists", where, len(hs)), s, hoistedVars(hs))
			hoisted += len(hs)
		}
	}
	if rewrites == 0 || deleted == 0 || hoisted == 0 {
		t.Fatalf("%d rewrites, %d deletions, %d hoists: every edit must run", rewrites, deleted, hoisted)
	}
}

// rewriteAll makes the passes' rewrites across s's reachable code, in
// turn on each copy, unary and binary instruction: a rewrite to a
// constant, to a copy of its first operand, and, for a binary one, the
// replacement of its second operand by its first. The operand of each
// branch or return is replaced by the definition of the block's last
// defining instruction, which reaches the terminator. It returns the
// number of edits.
func rewriteAll(s *ssa.SSA) int {
	n := 0
	for _, b := range s.Dom.RPO {
		for idx, in := range b.Instrs {
			switch in.(type) {
			case *ir.CopyInstr, *ir.UnaryInstr, *ir.BinaryInstr:
			default:
				continue
			}
			uds := s.UsesOf(in)
			switch n % 4 {
			case 0:
				s.RewriteToConst(b, idx, &ir.ConstInstr{Dst: in.Defs()[0], Val: val.Int(1)})
			case 1:
				s.RewriteToCopy(b, idx, &ir.CopyInstr{Dst: in.Defs()[0], Src: in.Uses()[0]}, uds[0])
			case 2:
				if len(uds) == 2 {
					s.ReplaceUseOperand(b, in, 1, uds[0])
				}
			}
			n++
		}
		if len(s.TermUsesOf(b)) == 0 {
			continue
		}
		for k := len(b.Instrs) - 1; k >= 0; k-- {
			if ds := s.DefsOf(b.Instrs[k]); len(ds) > 0 {
				s.ReplaceTermOperand(b, 0, ds[0])
				n++
				break
			}
		}
	}
	return n
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

func keysOf(s *ssa.SSA, ds []int32) []defKey {
	out := make([]defKey, len(ds))
	for i, d := range ds {
		out[i] = keyOf(s, d)
	}
	return out
}

// answers is what an overlay says of its function, keyed by
// instruction, block and variable instead of by ID: a fresh Build
// renumbers the function's instructions.
type answers struct {
	// uses counts each live definition's uses; φ arguments do not
	// count for a loose variable, and its φs are left out.
	uses  map[defKey]int
	dead  []string // the loose variables' φs that reach a real use
	entry []defKey // per AllVars position; kind 255 for None
	phis  map[int][]defKey
	args  map[defKey][]defKey
	ops   map[ir.Instr][]defKey
	calls map[ir.Instr][]defKey
	terms map[int][]defKey
	rets  map[int][]defKey
}

// answersOf takes s's answers. The variables of loose may have φs a
// fresh build would not place, so their φs are not compared, only
// checked to reach no instruction or terminator use.
func answersOf(s *ssa.SSA, loose map[*sem.Var]bool) answers {
	a := answers{
		uses: make(map[defKey]int), phis: make(map[int][]defKey), args: make(map[defKey][]defKey),
		ops: make(map[ir.Instr][]defKey), calls: make(map[ir.Instr][]defKey),
		terms: make(map[int][]defKey), rets: make(map[int][]defKey),
	}
	for d := range s.Defs {
		d := int32(d)
		def := s.Defs[d]
		switch {
		case def.Kind == ssa.DefDeleted:
		case loose[s.Var(d)] && def.Kind == ssa.DefPhi:
			if reachesRealUse(s, d, map[int32]bool{}) {
				a.dead = append(a.dead, s.Name(d))
			}
		case loose[s.Var(d)]:
			k := keyOf(s, d)
			a.uses[k] = 0
			for _, u := range usesOf(s, d) {
				if u.Kind != ssa.UsePhi {
					a.uses[k]++
				}
			}
		default:
			a.uses[keyOf(s, d)] = len(usesOf(s, d))
		}
	}
	for _, d := range s.EntryDefs {
		a.entry = append(a.entry, keyOf(s, d))
	}
	for _, b := range s.Dom.RPO {
		for k := range s.Phis[b.Index] {
			phi := &s.Phis[b.Index][k]
			if !loose[s.Var(phi.Def)] {
				a.phis[b.Index] = append(a.phis[b.Index], keyOf(s, phi.Def))
				a.args[keyOf(s, phi.Def)] = keysOf(s, s.PhiArgs(phi))
			}
		}
		for _, in := range b.Instrs {
			a.ops[in] = keysOf(s, s.UsesOf(in))
			if call, ok := in.(*ir.CallInstr); ok {
				a.calls[in] = keysOf(s, s.GlobalsAtCall(call))
			}
		}
		a.terms[b.Index] = keysOf(s, s.TermUsesOf(b))
		if _, ok := b.Term.(*ir.Ret); ok {
			a.rets[b.Index] = keysOf(s, s.RetSnapshot(b))
		}
	}
	return a
}

// matchBuild fails unless s, an edited overlay, equals a fresh Build of
// its function up to definition and instruction IDs: the same live
// definitions with the same use counts, entry definitions, reaching
// definitions of every operand, terminator operand and φ argument,
// call snapshots, and every slot of the return snapshots, each row
// exactly FrameLen long, and a clean Verify. An entry slot a graft
// took over must be one a fresh build gives no uses. The variables of
// loose are compared as answersOf says. The fresh build renumbers the
// function; matchBuild restores the edited overlay's IDs, so editing
// can go on.
func matchBuild(t *testing.T, where string, s *ssa.SSA, loose map[*sem.Var]bool) {
	t.Helper()
	mustVerify(t, s, where)
	got := answersOf(s, loose)
	fn := s.Fn
	var instrs []ir.Instr
	for _, b := range fn.Blocks {
		instrs = append(instrs, b.Instrs...)
	}
	ids := make([]int, len(instrs))
	for i, in := range instrs {
		ids[i] = in.InstrID()
	}
	numbered := fn.NumInstrs
	fresh := ssa.Build(fn)
	want := answersOf(fresh, loose)
	for i, in := range instrs {
		ir.SetInstrID(in, ids[i])
	}
	fn.NumInstrs = numbered

	for vi, k := range got.entry {
		if k.kind == 255 {
			if n := want.uses[want.entry[vi]]; n != 0 {
				t.Fatalf("%s: the graft took over the entry of %s, which has %d uses in a fresh build", where, fn.AllVars[vi].Name, n)
			}
			delete(want.uses, want.entry[vi])
		} else if k != want.entry[vi] {
			t.Fatalf("%s: the entry slot of %s holds %+v, a fresh build's %+v", where, fn.AllVars[vi].Name, k, want.entry[vi])
		}
	}
	if len(got.dead)+len(want.dead) > 0 {
		t.Fatalf("%s: φs of hoisted variables reach real uses: %v in the edited overlay, %v in a fresh build", where, got.dead, want.dead)
	}
	for k, n := range want.uses {
		m, ok := got.uses[k]
		if !ok {
			t.Fatalf("%s: a fresh build defines %+v, the edited overlay does not", where, k)
		}
		if m != n {
			t.Fatalf("%s: %+v has %d uses, %d in a fresh build", where, k, m, n)
		}
		delete(got.uses, k)
	}
	if len(got.uses) != 0 {
		t.Fatalf("%s: the edited overlay has %d definitions a fresh build lacks", where, len(got.uses))
	}
	same := func(what string, g, w []defKey) {
		t.Helper()
		if !slices.Equal(g, w) {
			t.Fatalf("%s: %s reached by %+v, in a fresh build by %+v", where, what, g, w)
		}
	}
	for _, b := range fresh.Dom.RPO {
		same("the φs of "+b.String(), got.phis[b.Index], want.phis[b.Index])
		for _, k := range want.phis[b.Index] {
			same(fmt.Sprintf("the arguments of φ %+v", k), got.args[k], want.args[k])
		}
		for _, in := range b.Instrs {
			same("the operands of "+in.String(), got.ops[in], want.ops[in])
			same("the call snapshot of "+in.String(), got.calls[in], want.calls[in])
		}
		same("the terminator of "+b.String(), got.terms[b.Index], want.terms[b.Index])
		if _, ok := b.Term.(*ir.Ret); ok {
			if len(want.rets[b.Index]) != fn.FrameLen() {
				t.Fatalf("%s: the return snapshot of %s has %d slots, the frame %d", where, b, len(want.rets[b.Index]), fn.FrameLen())
			}
			same("the return snapshot of "+b.String(), got.rets[b.Index], want.rets[b.Index])
		}
	}
}
