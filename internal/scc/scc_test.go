package scc_test

import (
	"testing"

	"fsicp/internal/ir"
	"fsicp/internal/lattice"
	"fsicp/internal/scc"
	"fsicp/internal/sem"
	"fsicp/internal/ssa"
	"fsicp/internal/testutil"
	"fsicp/internal/val"
)

// runOn builds SSA and runs SCC on the named procedure.
func runOn(t *testing.T, src, proc string, entry []lattice.Elem) (*ir.Func, *scc.Result) {
	t.Helper()
	p := testutil.MustBuild(t, src)
	f := testutil.FuncByName(t, p, proc)
	s := ssa.Build(f)
	return f, scc.Run(s, scc.Options{Entry: entry})
}

// printValue returns the lattice value flowing into the first print's
// first operand in f.
func printValue(t *testing.T, f *ir.Func, r *scc.Result) lattice.Elem {
	t.Helper()
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if pr, ok := in.(*ir.PrintInstr); ok {
				return r.ValueOf(r.S.UsesOf(pr)[0])
			}
		}
	}
	t.Fatal("no print instruction")
	return lattice.Elem{}
}

func TestStraightLineFolding(t *testing.T) {
	f, r := runOn(t, `program p
proc main() {
  var x int = 2
  var y int
  y = x * 3 + 4
  print y
}`, "main", nil)
	got := printValue(t, f, r)
	if !got.IsConst() || got.Val().I != 10 {
		t.Errorf("y = %v, want 10", got)
	}
}

func TestMeetAtJoinNonConstant(t *testing.T) {
	f, r := runOn(t, `program p
proc main() {
  var c int
  read c
  var x int
  if c > 0 {
    x = 1
  } else {
    x = 2
  }
  print x
}`, "main", nil)
	got := printValue(t, f, r)
	if !got.IsBottom() {
		t.Errorf("x = %v, want ⊥", got)
	}
}

func TestMeetAtJoinSameConstant(t *testing.T) {
	f, r := runOn(t, `program p
proc main() {
  var c int
  read c
  var x int
  if c > 0 {
    x = 7
  } else {
    x = 7
  }
  print x
}`, "main", nil)
	got := printValue(t, f, r)
	if !got.IsConst() || got.Val().I != 7 {
		t.Errorf("x = %v, want 7", got)
	}
}

// TestConditionalConstant is the heart of Wegman–Zadeck: a branch on a
// known-constant condition keeps the dead arm unreachable, so the
// surviving assignment is constant. This is exactly what the paper's
// Figure 1 needs for formal f2.
func TestConditionalConstant(t *testing.T) {
	src := `program p
proc sub1(f1 int) {
  var y int
  if f1 != 0 {
    y = 1
  } else {
    y = 0
  }
  print y
}
proc main() { call sub1(0) }`

	// Without knowledge of f1, y is ⊥.
	f, r := runOn(t, src, "sub1", nil)
	if got := printValue(t, f, r); !got.IsBottom() {
		t.Errorf("y without entry env = %v, want ⊥", got)
	}

	// With f1 = 0 injected, the then-branch is unreachable and y = 0.
	p := testutil.MustBuild(t, src)
	f2 := testutil.FuncByName(t, p, "sub1")
	f1v := testutil.VarByName(t, f2, "f1")
	env := lattice.Env[*sem.Var]{f1v: lattice.Const(val.Int(0))}
	s := ssa.Build(f2)
	r2 := scc.Run(s, scc.Options{Entry: scc.Frame(f2, env)})
	got := lattice.Elem{}
	for _, b := range f2.Blocks {
		for _, in := range b.Instrs {
			if pr, ok := in.(*ir.PrintInstr); ok {
				got = r2.ValueOf(s.UsesOf(pr)[0])
			}
		}
	}
	if !got.IsConst() || got.Val().I != 0 {
		t.Errorf("y with f1=0 = %v, want 0", got)
	}
	// The then-arm must be unreachable.
	iff := f2.Entry().Term.(*ir.If)
	if r2.BlockExec[iff.Then.Index] {
		t.Error("then branch should be unreachable under f1=0")
	}
}

func TestLoopConstant(t *testing.T) {
	// x is reassigned the same constant in the loop: stays constant.
	f, r := runOn(t, `program p
proc main() {
  var n int
  read n
  var x int = 5
  var i int
  for i = 1, n {
    x = 5
  }
  print x
}`, "main", nil)
	got := printValue(t, f, r)
	if !got.IsConst() || got.Val().I != 5 {
		t.Errorf("x = %v, want 5", got)
	}
}

func TestLoopVariant(t *testing.T) {
	f, r := runOn(t, `program p
proc main() {
  var n int
  read n
  var x int = 5
  var i int
  for i = 1, n {
    x = x + 1
  }
  print x
}`, "main", nil)
	got := printValue(t, f, r)
	if !got.IsBottom() {
		t.Errorf("x = %v, want ⊥", got)
	}
}

func TestWhileFalseNeverEntered(t *testing.T) {
	f, r := runOn(t, `program p
proc main() {
  var x int = 1
  while false {
    x = 99
  }
  print x
}`, "main", nil)
	got := printValue(t, f, r)
	if !got.IsConst() || got.Val().I != 1 {
		t.Errorf("x = %v, want 1", got)
	}
}

func TestDivByConstantZeroNotFolded(t *testing.T) {
	f, r := runOn(t, `program p
proc main() {
  var z int = 0
  var x int
  x = 1 / z
  print x
}`, "main", nil)
	got := printValue(t, f, r)
	if !got.IsBottom() {
		t.Errorf("1/0 = %v, want ⊥ (runtime error, must not fold)", got)
	}
}

func TestReadIsBottom(t *testing.T) {
	f, r := runOn(t, `program p
proc main() {
  var x int
  read x
  print x
}`, "main", nil)
	if got := printValue(t, f, r); !got.IsBottom() {
		t.Errorf("read x = %v, want ⊥", got)
	}
}

func TestCallKillsMayDefs(t *testing.T) {
	src := `program p
global g int = 1
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
}`
	// MOD/REF fills the call's MayDef ({x, g}) and installs g in
	// main's global segment.
	p := testutil.MustPrepare(t, src)
	f := testutil.FuncByName(t, p, "main")
	x := testutil.VarByName(t, f, "x")
	g := testutil.VarByName(t, f, "g")
	if md := f.Calls[0].MayDef; len(md) != 2 || (md[0] != x && md[1] != x) || (md[0] != g && md[1] != g) {
		t.Fatalf("call MayDef = %v, want {x, g}", md)
	}
	s := ssa.Build(f)
	env := lattice.Env[*sem.Var]{g: lattice.Const(val.Int(1))}
	r := scc.Run(s, scc.Options{Entry: scc.Frame(f, env)})
	var pr *ir.PrintInstr
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if q, ok := in.(*ir.PrintInstr); ok {
				pr = q
			}
		}
	}
	for i, d := range s.UsesOf(pr) {
		if !r.ValueOf(d).IsBottom() {
			t.Errorf("operand %d after call = %v, want ⊥", i, r.ValueOf(d))
		}
	}
	// Before the call g is still 1.
	if got := r.GlobalValueAtCall(f.Calls[0], f.VarOrd(g)-f.GlobalOffset()); !got.IsConst() || got.Val().I != 1 {
		t.Errorf("g at call = %v, want 1", got)
	}
}

func TestCallResultHook(t *testing.T) {
	src := `program p
proc main() {
  var x int
  x = f(1)
  print x
}
func f(a int) int { return 3 }`
	p := testutil.MustBuild(t, src)
	f := testutil.FuncByName(t, p, "main")
	s := ssa.Build(f)
	r := scc.Run(s, scc.Options{
		Entry: nil,
		CallResult: func(call *ir.CallInstr) lattice.Elem {
			return lattice.Const(val.Int(3))
		},
	})
	got := printValue(t, f, r)
	if !got.IsConst() || got.Val().I != 3 {
		t.Errorf("x = %v, want 3", got)
	}
}

func TestReturnValue(t *testing.T) {
	src := `program p
proc main() { var x int
 x = f(0) }
func f(a int) int {
  if a == a {
    return 4
  }
  return 5
}`
	p := testutil.MustBuild(t, src)
	f := testutil.FuncByName(t, p, "f")
	s := ssa.Build(f)
	r := scc.Run(s, scc.Options{})
	// a == a is not folded (a is ⊥... a==a with both operands same def
	// is still ⊥ op ⊥ = ⊥), so both returns are reachable: meet(4,5)=⊥.
	if got := r.ReturnValue(); !got.IsBottom() {
		t.Errorf("return value = %v, want ⊥", got)
	}

	src2 := `program p
proc main() { var x int
 x = g(0) }
func g(a int) int {
  if a > 0 {
    return 4
  }
  return 4
}`
	p2 := testutil.MustBuild(t, src2)
	f2 := testutil.FuncByName(t, p2, "g")
	s2 := ssa.Build(f2)
	r2 := scc.Run(s2, scc.Options{})
	if got := r2.ReturnValue(); !got.IsConst() || got.Val().I != 4 {
		t.Errorf("return value = %v, want 4", got)
	}
}

func TestArgValuesAtCall(t *testing.T) {
	src := `program p
proc main() {
  var x int = 3
  var y int
  read y
  call f(x, y, 7, x + 1)
}
proc f(a int, b int, c int, d int) { print a }`
	p := testutil.MustBuild(t, src)
	f := testutil.FuncByName(t, p, "main")
	s := ssa.Build(f)
	r := scc.Run(s, scc.Options{})
	call := f.Calls[0]
	want := []lattice.Elem{
		lattice.Const(val.Int(3)),
		lattice.BottomElem(),
		lattice.Const(val.Int(7)),
		lattice.Const(val.Int(4)),
	}
	for i, w := range want {
		if got := r.ArgValue(call, i); !got.Eq(w) {
			t.Errorf("arg %d = %v, want %v", i, got, w)
		}
	}
}

func TestUnreachableCallSiteIsTop(t *testing.T) {
	src := `program p
proc main() {
  if false {
    call f(1)
  }
}
proc f(a int) { print a }`
	p := testutil.MustBuild(t, src)
	f := testutil.FuncByName(t, p, "main")
	s := ssa.Build(f)
	r := scc.Run(s, scc.Options{})
	call := f.Calls[0]
	if r.Reachable(call) {
		t.Fatal("call should be unreachable")
	}
	if got := r.ArgValue(call, 0); !got.IsTop() {
		t.Errorf("arg of unreachable call = %v, want ⊤", got)
	}
}

func TestBoolOpsFold(t *testing.T) {
	f, r := runOn(t, `program p
proc main() {
  var b bool
  b = 1 < 2 && !(3 == 4)
  print b
}`, "main", nil)
	got := printValue(t, f, r)
	if !got.IsConst() || !got.Val().B {
		t.Errorf("b = %v, want true", got)
	}
}

func TestRealArithmetic(t *testing.T) {
	f, r := runOn(t, `program p
proc main() {
  var x real = 1.5
  var y real
  y = x * 2.0 - 0.5
  print y
}`, "main", nil)
	got := printValue(t, f, r)
	if !got.IsConst() || got.Val().R != 2.5 {
		t.Errorf("y = %v, want 2.5", got)
	}
}

func TestClobberLowersValue(t *testing.T) {
	src := `program p
proc main() {
  var x int = 1
  print x
}`
	p := testutil.MustBuild(t, src)
	f := testutil.FuncByName(t, p, "main")
	x := testutil.VarByName(t, f, "x")
	// Insert a clobber of x between the const and the print.
	entry := f.Entry()
	clob := &ir.ClobberInstr{Vars: []*sem.Var{x}, Why: "test"}
	entry.Instrs = []ir.Instr{entry.Instrs[0], clob, entry.Instrs[1]}
	s := ssa.Build(f)
	r := scc.Run(s, scc.Options{})
	var pr *ir.PrintInstr
	for _, in := range entry.Instrs {
		if q, ok := in.(*ir.PrintInstr); ok {
			pr = q
		}
	}
	if got := r.ValueOf(s.UsesOf(pr)[0]); !got.IsBottom() {
		t.Errorf("x after clobber = %v, want ⊥", got)
	}
}
