package ssa_test

import (
	"testing"

	"fsicp/internal/ir"
	"fsicp/internal/ssa"
	"fsicp/internal/testutil"
)

func TestPhiPlacementDiamond(t *testing.T) {
	p := testutil.MustBuild(t, `program p
proc main() {
  var x int
  read x
  if x > 0 {
    x = 1
  } else {
    x = 2
  }
  print x
}`)
	f := testutil.FuncByName(t, p, "main")
	s := ssa.Build(f)
	iff := f.Entry().Term.(*ir.If)
	join := iff.Then.Term.(*ir.Jump).Target
	x := testutil.VarByName(t, f, "x")

	var xphi *ssa.Phi
	for k, phi := range s.Phis[join.Index] {
		if f.AllVars[phi.Var] == x {
			xphi = &s.Phis[join.Index][k]
		}
	}
	if xphi == nil {
		t.Fatalf("no phi for x at join:\n%s", s.Dump())
	}
	if len(s.PhiArgs(xphi)) != 2 {
		t.Fatalf("phi args: %d", len(s.PhiArgs(xphi)))
	}
	for i, a := range s.PhiArgs(xphi) {
		if a == ssa.None {
			t.Errorf("phi arg %d nil", i)
		} else if s.Defs[a].Kind != ssa.DefInstr {
			t.Errorf("phi arg %d kind %v", i, s.Defs[a].Kind)
		}
	}
	// The print uses the phi def.
	var print *ir.PrintInstr
	for _, in := range join.Instrs {
		if pr, ok := in.(*ir.PrintInstr); ok {
			print = pr
		}
	}
	if print == nil {
		t.Fatalf("no print in join block")
	}
	ud := s.UsesOf(print)
	if len(ud) != 1 || ud[0] != xphi.Def {
		t.Errorf("print does not use the phi: %v", ud)
	}
}

func TestEntryDefsForAllVars(t *testing.T) {
	p := testutil.MustBuild(t, `program p
global g int = 1
proc f(a int, b real) {
  var x bool
  print a
}
proc main() { call f(1, 2.0) }`)
	f := testutil.FuncByName(t, p, "f")
	s := ssa.Build(f)
	for _, v := range f.AllVars {
		d := s.EntryDef(v)
		if s.Defs[d].Kind != ssa.DefEntry || s.Var(d) != v {
			t.Errorf("bad entry def for %s: %+v", v, s.Defs[d])
		}
	}
	// The print of 'a' with no prior assignment uses the entry def.
	a := testutil.VarByName(t, f, "a")
	var print *ir.PrintInstr
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if pr, ok := in.(*ir.PrintInstr); ok {
				print = pr
			}
		}
	}
	if got := s.UsesOf(print)[0]; got != s.EntryDef(a) {
		t.Errorf("print uses %v, want entry def of a", got)
	}
}

func TestLoopPhi(t *testing.T) {
	p := testutil.MustBuild(t, `program p
proc main() {
  var x int = 10
  while x > 0 {
    x = x - 1
  }
  print x
}`)
	f := testutil.FuncByName(t, p, "main")
	s := ssa.Build(f)
	header := f.Entry().Term.(*ir.Jump).Target
	x := testutil.VarByName(t, f, "x")
	var xphi *ssa.Phi
	for k, phi := range s.Phis[header.Index] {
		if f.AllVars[phi.Var] == x {
			xphi = &s.Phis[header.Index][k]
		}
	}
	if xphi == nil {
		t.Fatalf("no loop phi for x:\n%s", s.Dump())
	}
	// One arg is the initial const def, the other the decrement.
	kinds := map[ssa.DefKind]int{}
	for _, a := range s.PhiArgs(xphi) {
		kinds[s.Defs[a].Kind]++
	}
	if kinds[ssa.DefInstr] != 2 {
		t.Errorf("phi args kinds: %v\n%s", kinds, s.Dump())
	}
	// The loop condition uses the phi.
	condUse := s.UsesOf(header.Instrs[len(header.Instrs)-1])
	if condUse[0] != xphi.Def {
		t.Errorf("condition does not use loop phi")
	}
}

func TestCallMayDefCreatesDefs(t *testing.T) {
	p := testutil.MustPrepare(t, `program p
global g int = 1
global h int = 3
proc main() {
  use g
  var x int = 2
  call f(x)
  print x, g
}
proc f(a int) {
  use g
  a = 5
  g = 6
}`)
	f := testutil.FuncByName(t, p, "main")
	call := f.Calls[0]
	x := testutil.VarByName(t, f, "x")
	g := testutil.VarByName(t, f, "g")
	// modref fills MayDef: the by-reference actual bound to the
	// modified formal, and the modified global — nothing else.
	if len(call.MayDef) != 2 || !((call.MayDef[0] == x && call.MayDef[1] == g) || (call.MayDef[0] == g && call.MayDef[1] == x)) {
		t.Fatalf("call MayDef = %v, want {x, g}", call.MayDef)
	}
	s := ssa.Build(f)
	ids := s.DefsOf(call)
	if len(ids) != 2 {
		t.Fatalf("call defs: %d", len(ids))
	}
	// print x, g must use the call's defs, not the original ones.
	var print *ir.PrintInstr
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if pr, ok := in.(*ir.PrintInstr); ok {
				print = pr
			}
		}
	}
	ud := s.UsesOf(print)
	for i, d := range ud {
		if s.Defs[d].Kind != ssa.DefInstr || s.Instr(s.Defs[d].Site) != call {
			t.Errorf("print use %d: %v, want def from call", i, s.Name(d))
		}
	}
	// h is outside REF*(main) ∪ MOD*(main): no definition of it exists.
	h := p.Sem.Globals[1]
	for d := range s.Defs {
		if s.Var(int32(d)) == h {
			t.Errorf("untracked global h has definition %v", s.Name(int32(d)))
		}
	}
}

func TestGlobalsAtCallSnapshot(t *testing.T) {
	p := testutil.MustPrepare(t, `program p
global g int = 1
global h int = 2
proc main() {
  use g
  g = 42
  call f()
}
proc f() {}`)
	f := testutil.FuncByName(t, p, "main")
	s := ssa.Build(f)
	call := f.Calls[0]
	g := testutil.VarByName(t, f, "g")
	h := p.Sem.Globals[1]
	gd := s.GlobalsAtCall(call)[f.VarOrd(g)-f.GlobalOffset()]
	if s.Defs[gd].Kind != ssa.DefInstr {
		t.Errorf("g at call should be the assignment def, got %v", s.Defs[gd].Kind)
	}
	// Neither main nor f touches h, so main does not track it: no
	// entry definition, no slot in the call snapshot.
	if f.VarOrd(h) >= 0 {
		t.Fatalf("main tracks h, which nothing references")
	}
	if gs := f.Globals(); len(gs) != 1 || gs[0] != g {
		t.Errorf("main tracks globals %v, want exactly g", gs)
	}
	for _, d := range s.EntryDefs {
		if s.Var(d) == h {
			t.Errorf("untracked global h has an entry definition")
		}
	}
}

func TestUsesBackEdges(t *testing.T) {
	p := testutil.MustBuild(t, `program p
proc main() {
  var x int = 1
  var y int
  y = x + x
  print y
}`)
	f := testutil.FuncByName(t, p, "main")
	s := ssa.Build(f)
	x := testutil.VarByName(t, f, "x")
	// x's const def has two uses from the binary instruction.
	constDef := int32(ssa.None)
	for d := range s.Defs {
		if s.Var(int32(d)) == x && s.Defs[d].Kind == ssa.DefInstr {
			constDef = int32(d)
		}
	}
	if constDef == ssa.None {
		t.Fatal("no instr def for x")
	}
	if n := len(usesOf(s, constDef)); n != 2 {
		t.Errorf("x def uses: %d, want 2", n)
	}
}

// usesOf returns definition d's use records, in list order.
func usesOf(s *ssa.SSA, d int32) []ssa.Use {
	var out []ssa.Use
	for u := s.Defs[d].FirstUse; u != ssa.None; u = s.Uses[u].Next {
		out = append(out, s.Uses[u])
	}
	return out
}
