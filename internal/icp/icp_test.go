package icp_test

import (
	"sync"
	"testing"

	"fsicp/internal/icp"
	"fsicp/internal/ir"
	"fsicp/internal/ssa"
	"fsicp/internal/testutil"
)

// Figure1 is a reconstruction of the paper's Figure 1 example program:
// main passes the literal 0 to sub1; inside sub1, y is constant only
// under knowledge of f1 (flow-sensitivity), x is an intraprocedural
// constant, and f1 is passed through unmodified to sub2.
const Figure1 = `program figure1
proc main() {
  call sub1(0)
}
proc sub1(f1 int) {
  var x int
  var y int
  if f1 != 0 {
    y = 1
  } else {
    y = 0
  }
  x = 0
  call sub2(y, 4, f1, x)
}
proc sub2(f2 int, f3 int, f4 int, f5 int) {
  var s int
  s = f2 + f3 + f4 + f5
  print s
}`

func analyze(t *testing.T, src string, opts icp.Options) *icp.Result {
	t.Helper()
	prog := testutil.MustBuild(t, src)
	ctx := icp.Prepare(prog)
	return icp.Analyze(ctx, opts)
}

// constFormalNames returns the names of p's constant-at-entry formals.
func constFormalNames(r *icp.Result, procName string) map[string]int64 {
	p := r.Ctx.Prog.Sem.ProcByName[procName]
	out := make(map[string]int64)
	for _, f := range r.ConstantFormals(p) {
		v, _ := r.EntryConstant(p, f)
		out[f.Name] = v.I
	}
	return out
}

func TestFigure1FlowSensitive(t *testing.T) {
	r := analyze(t, Figure1, icp.Options{Method: icp.FlowSensitive, PropagateFloats: true})
	got := constFormalNames(r, "sub2")
	want := map[string]int64{"f2": 0, "f3": 4, "f4": 0, "f5": 0}
	if len(got) != len(want) {
		t.Fatalf("FS constants at sub2: %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("FS %s = %d, want %d", k, got[k], v)
		}
	}
	if g1 := constFormalNames(r, "sub1"); len(g1) != 1 || g1["f1"] != 0 {
		t.Errorf("FS constants at sub1: %v, want {f1:0}", g1)
	}
}

func TestFigure1FlowInsensitive(t *testing.T) {
	r := analyze(t, Figure1, icp.Options{Method: icp.FlowInsensitive, PropagateFloats: true})
	got := constFormalNames(r, "sub2")
	// FI finds f3 (literal) and f4 (pass-through of constant f1), but
	// not f2 (needs flow-sensitivity) or f5 (local constant x).
	want := map[string]int64{"f3": 4, "f4": 0}
	if len(got) != len(want) {
		t.Fatalf("FI constants at sub2: %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("FI %s = %d, want %d", k, got[k], v)
		}
	}
	if g1 := constFormalNames(r, "sub1"); len(g1) != 1 || g1["f1"] != 0 {
		t.Errorf("FI constants at sub1: %v, want {f1:0}", g1)
	}
}

func TestMeetAcrossCallSites(t *testing.T) {
	src := `program p
proc main() {
  call f(1)
  call f(1)
  call g(1)
  call g(2)
}
proc f(a int) { print a }
proc g(b int) { print b }`
	for _, m := range []icp.Method{icp.FlowInsensitive, icp.FlowSensitive} {
		r := analyze(t, src, icp.Options{Method: m, PropagateFloats: true})
		if got := constFormalNames(r, "f"); got["a"] != 1 || len(got) != 1 {
			t.Errorf("%v: f constants %v, want {a:1}", m, got)
		}
		if got := constFormalNames(r, "g"); len(got) != 0 {
			t.Errorf("%v: g constants %v, want none", m, got)
		}
	}
}

func TestGlobalConstantPropagation(t *testing.T) {
	src := `program p
global gc int = 11
global gm int = 22
proc main() {
  use gm
  gm = 1
  call f()
}
proc f() {
  use gc, gm
  print gc, gm
}`
	for _, m := range []icp.Method{icp.FlowInsensitive, icp.FlowSensitive} {
		r := analyze(t, src, icp.Options{Method: m, PropagateFloats: true})
		f := r.Ctx.Prog.Sem.ProcByName["f"]
		gc := r.Ctx.Prog.Sem.Globals[0]
		gm := r.Ctx.Prog.Sem.Globals[1]
		if v, ok := r.EntryConstant(f, gc); !ok || v.I != 11 {
			t.Errorf("%v: gc at f = %v,%v, want 11", m, v, ok)
		}
		if _, ok := r.ProgramGlobalConstants[gm]; ok {
			t.Errorf("%v: gm is modified, cannot be program-wide constant", m)
		}
		if m == icp.FlowInsensitive {
			if _, ok := r.EntryConstant(f, gm); ok {
				t.Errorf("FI: gm must not be constant at f")
			}
		}
	}
}

// Flow-sensitively, a modified global can still be constant at a
// specific procedure's entry (same value on every call path), which the
// flow-insensitive method can never establish.
func TestFSGlobalConstantDespiteModification(t *testing.T) {
	src := `program p
global g int = 5
proc main() {
  use g
  call f()
  g = 9
  call h()
}
proc f() {
  use g
  print g
}
proc h() {
  use g
  print g
}`
	r := analyze(t, src, icp.Options{Method: icp.FlowSensitive, PropagateFloats: true})
	g := r.Ctx.Prog.Sem.Globals[0]
	f := r.Ctx.Prog.Sem.ProcByName["f"]
	h := r.Ctx.Prog.Sem.ProcByName["h"]
	if v, ok := r.EntryConstant(f, g); !ok || v.I != 5 {
		t.Errorf("g at f = %v,%v, want 5", v, ok)
	}
	if v, ok := r.EntryConstant(h, g); !ok || v.I != 9 {
		t.Errorf("g at h = %v,%v, want 9", v, ok)
	}
	rfi := analyze(t, src, icp.Options{Method: icp.FlowInsensitive, PropagateFloats: true})
	if _, ok := rfi.EntryConstant(f, g); ok {
		t.Error("FI must not find the modified global constant")
	}
}

func TestRecursionUsesFIFallback(t *testing.T) {
	src := `program p
proc main() {
  call r(7, 0)
}
proc r(k int, n int) {
  if n < 3 {
    call r(k, n + 1)
  }
  print k, n
}`
	r := analyze(t, src, icp.Options{Method: icp.FlowSensitive, PropagateFloats: true})
	if r.BackEdgesUsed == 0 {
		t.Fatal("recursive program must consult the FI fallback")
	}
	got := constFormalNames(r, "r")
	// k is passed through unmodified on the back edge and is the
	// literal 7 on the forward edge: constant even with recursion.
	if got["k"] != 7 {
		t.Errorf("k = %v, want 7 (constants: %v)", got["k"], got)
	}
	// n varies (0, n+1): not constant.
	if _, ok := got["n"]; ok {
		t.Errorf("n must not be constant: %v", got)
	}
}

func TestMutualRecursionSound(t *testing.T) {
	src := `program p
proc main() { call even(10, 3) }
proc even(n int, c int) {
  if n > 0 {
    call odd(n - 1, c)
  }
  print c
}
proc odd(n int, c int) {
  if n > 0 {
    call even(n - 1, c)
  }
  print c
}`
	r := analyze(t, src, icp.Options{Method: icp.FlowSensitive, PropagateFloats: true})
	// c is 3 everywhere (pass-through through the cycle).
	if got := constFormalNames(r, "even"); got["c"] != 3 {
		t.Errorf("even.c = %v, want 3", got)
	}
	if got := constFormalNames(r, "odd"); got["c"] != 3 {
		t.Errorf("odd.c = %v, want 3", got)
	}
	// n varies.
	for _, pn := range []string{"even", "odd"} {
		if _, ok := constFormalNames(r, pn)["n"]; ok {
			t.Errorf("%s.n must not be constant", pn)
		}
	}
}

func TestUnreachableCallSiteIgnored(t *testing.T) {
	src := `program p
proc main() {
  call f(1)
  if false {
    call f(2)
  }
}
proc f(a int) { print a }`
	r := analyze(t, src, icp.Options{Method: icp.FlowSensitive, PropagateFloats: true})
	if got := constFormalNames(r, "f"); got["a"] != 1 {
		t.Errorf("FS must ignore the dead call: %v", got)
	}
	// FI is syntactic: it sees both call sites and meets 1 with 2.
	rfi := analyze(t, src, icp.Options{Method: icp.FlowInsensitive, PropagateFloats: true})
	if got := constFormalNames(rfi, "f"); len(got) != 0 {
		t.Errorf("FI should not find a constant: %v", got)
	}
}

func TestDeadProcedure(t *testing.T) {
	src := `program p
proc main() {
  if false {
    call g(5)
  }
}
proc g(a int) { print a }`
	r := analyze(t, src, icp.Options{Method: icp.FlowSensitive, PropagateFloats: true})
	g := r.Ctx.Prog.Sem.ProcByName["g"]
	if !deadProc(r, g) {
		t.Error("g must be flagged dynamically dead")
	}
	if got := constFormalNames(r, "g"); len(got) != 0 {
		t.Errorf("dead procedure must report no constants: %v", got)
	}
}

func TestModifiedFormalNotPassedThrough(t *testing.T) {
	src := `program p
proc main() { call a(1) }
proc a(x int) {
  x = x + 1
  call b(x)
}
proc b(y int) { print y }`
	// FI: x is modified in a, so it is not a pass-through; y is ⊥.
	rfi := analyze(t, src, icp.Options{Method: icp.FlowInsensitive, PropagateFloats: true})
	if got := constFormalNames(rfi, "b"); len(got) != 0 {
		t.Errorf("FI: %v, want none", got)
	}
	// FS: x = 1+1 = 2 at the call site.
	rfs := analyze(t, src, icp.Options{Method: icp.FlowSensitive, PropagateFloats: true})
	if got := constFormalNames(rfs, "b"); got["y"] != 2 {
		t.Errorf("FS: %v, want {y:2}", got)
	}
}

func TestCallKillsByRefActual(t *testing.T) {
	// After call mutate(x), x is unknown in the caller; the second call
	// must not see x=1.
	src := `program p
proc main() {
  var x int = 1
  call mutate(x)
  call consume(x)
}
proc mutate(m int) {
  read m
}
proc consume(c int) { print c }`
	r := analyze(t, src, icp.Options{Method: icp.FlowSensitive, PropagateFloats: true})
	if got := constFormalNames(r, "consume"); len(got) != 0 {
		t.Errorf("c must not be constant after by-ref mutation: %v", got)
	}
	if got := constFormalNames(r, "mutate"); got["m"] != 1 {
		t.Errorf("m = %v, want 1", got)
	}
}

func TestCallKillsModifiedGlobal(t *testing.T) {
	src := `program p
global g int = 1
proc main() {
  use g
  call bump()
  call consume()
}
proc bump() {
  use g
  g = g + 1
}
proc consume() {
  use g
  print g
}`
	r := analyze(t, src, icp.Options{Method: icp.FlowSensitive, PropagateFloats: true})
	g := r.Ctx.Prog.Sem.Globals[0]
	consume := r.Ctx.Prog.Sem.ProcByName["consume"]
	if _, ok := r.EntryConstant(consume, g); ok {
		t.Error("g must be unknown at consume after bump()")
	}
	bump := r.Ctx.Prog.Sem.ProcByName["bump"]
	if v, ok := r.EntryConstant(bump, g); !ok || v.I != 1 {
		t.Errorf("g at bump = %v,%v, want 1", v, ok)
	}
}

func TestFloatFilter(t *testing.T) {
	src := `program p
global pi real = 3.14
proc main() {
  use pi
  call f(2.5, 1)
}
proc f(a real, b int) {
  use pi
  print a, b, pi
}`
	on := analyze(t, src, icp.Options{Method: icp.FlowSensitive, PropagateFloats: true})
	f := on.Ctx.Prog.Sem.ProcByName["f"]
	pi := on.Ctx.Prog.Sem.Globals[0]
	if v, ok := on.EntryConstant(f, f.Params[0]); !ok || v.R != 2.5 {
		t.Errorf("floats on: a = %v,%v", v, ok)
	}
	if _, ok := on.EntryConstant(f, pi); !ok {
		t.Error("floats on: pi must be constant")
	}
	off := analyze(t, src, icp.Options{Method: icp.FlowSensitive, PropagateFloats: false})
	fOff := off.Ctx.Prog.Sem.ProcByName["f"]
	piOff := off.Ctx.Prog.Sem.Globals[0]
	if _, ok := off.EntryConstant(fOff, fOff.Params[0]); ok {
		t.Error("floats off: a must not be propagated")
	}
	if _, ok := off.EntryConstant(fOff, piOff); ok {
		t.Error("floats off: pi must not be propagated")
	}
	if v, ok := off.EntryConstant(fOff, fOff.Params[1]); !ok || v.I != 1 {
		t.Errorf("floats off: int b must still propagate: %v,%v", v, ok)
	}
}

func TestArgValsRecorded(t *testing.T) {
	r := analyze(t, Figure1, icp.Options{Method: icp.FlowSensitive, PropagateFloats: true})
	sub1 := r.Ctx.Prog.Sem.ProcByName["sub1"]
	calls := r.Ctx.Prog.FuncOf[sub1].Calls
	if len(calls) != 1 {
		t.Fatalf("calls in sub1: %d", len(calls))
	}
	vals := argVals(r, calls[0])
	wantI := []int64{0, 4, 0, 0}
	for i, w := range wantI {
		if !vals[i].IsConst() || vals[i].Val().I != w {
			t.Errorf("arg %d = %v, want %d", i, vals[i], w)
		}
	}
}

func TestGlobalCallValsSparse(t *testing.T) {
	src := `program p
global used int = 7
global unused int = 8
proc main() {
  use used, unused
  call f()
}
proc f() {
  use used
  print used
}`
	r := analyze(t, src, icp.Options{Method: icp.FlowSensitive, PropagateFloats: true})
	call := r.Ctx.Prog.FuncOf[r.Ctx.Prog.Sem.Main].Calls[0]
	gm := callGlobals(r, call, false)
	if len(gm) != 1 {
		t.Fatalf("global candidates: %v, want only 'used'", gm)
	}
	for g, v := range gm {
		if g.Name != "used" || v.I != 7 {
			t.Errorf("candidate %s=%v", g.Name, v)
		}
	}
	// VIS is the visible subset of the propagated candidates: only
	// 'used' qualifies ('unused' is not propagated at this call).
	if vis := callGlobals(r, call, true); len(vis) != 1 {
		t.Errorf("visible globals: %v, want 1", vis)
	}
}

// Invisible pass-through: a constant global flows through a procedure
// that cannot even name it, into a callee that uses it.
func TestInvisibleGlobalPassThrough(t *testing.T) {
	src := `program p
global hidden int = 13
proc main() {
  call middle()
}
proc middle() {
  call leaf()
}
proc leaf() {
  use hidden
  print hidden
}`
	r := analyze(t, src, icp.Options{Method: icp.FlowSensitive, PropagateFloats: true})
	leaf := r.Ctx.Prog.Sem.ProcByName["leaf"]
	hidden := r.Ctx.Prog.Sem.Globals[0]
	if v, ok := r.EntryConstant(leaf, hidden); !ok || v.I != 13 {
		t.Errorf("hidden at leaf = %v,%v, want 13", v, ok)
	}
	// At middle's call site the candidate is there (REF* of leaf) but
	// not visible in middle.
	middle := r.Ctx.Prog.Sem.ProcByName["middle"]
	call := r.Ctx.Prog.FuncOf[middle].Calls[0]
	if gm := callGlobals(r, call, false); len(gm) != 1 {
		t.Errorf("candidates at middle->leaf: %v", gm)
	}
	if vis := callGlobals(r, call, true); len(vis) != 0 {
		t.Errorf("hidden must not be visible in middle: %v", vis)
	}
}

func TestAnalysisTimeRecorded(t *testing.T) {
	r := analyze(t, Figure1, icp.Options{Method: icp.FlowSensitive, PropagateFloats: true})
	if r.AnalysisTime <= 0 {
		t.Error("analysis time not recorded")
	}
}

func TestAliasSoundness(t *testing.T) {
	// g is passed by reference to f's formal a; assigning a changes g.
	// The constant g=1 must not survive into the print inside f or at
	// the later call.
	src := `program p
global g int = 1
proc main() {
  use g
  call f(g)
  call after()
}
proc f(a int) {
  use g
  a = 99
  print g
}
proc after() {
  use g
  print g
}`
	r := analyze(t, src, icp.Options{Method: icp.FlowSensitive, PropagateFloats: true})
	after := r.Ctx.Prog.Sem.ProcByName["after"]
	g := r.Ctx.Prog.Sem.Globals[0]
	if _, ok := r.EntryConstant(after, g); ok {
		t.Error("g must be unknown at after() — modified via alias")
	}
	// Inside f, the print of g after a=99 must not see 1.
	f := r.Ctx.Prog.Sem.ProcByName["f"]
	intra := r.Intra[f]
	fn := r.Ctx.Prog.FuncOf[f]
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			pr, ok := in.(*ir.PrintInstr)
			if !ok {
				continue
			}
			if got := intra.ValueOf(intra.S.UsesOf(pr)[0]); got.IsConst() {
				t.Errorf("print g inside f sees constant %v despite alias store", got)
			}
		}
	}
}

// TestPrepareIdempotent: re-preparing a program (as the inline/clone
// passes do) must not duplicate alias clobbers.
func TestPrepareIdempotent(t *testing.T) {
	src := `program p
global g int = 1
proc main() {
  use g
  call q(g)
}
proc q(f int) {
  use g
  f = 2
  print g
}`
	prog := testutil.MustBuild(t, src)
	icp.Prepare(prog)
	count := func() int {
		n := 0
		for _, fn := range prog.Funcs {
			for _, b := range fn.Blocks {
				for _, in := range b.Instrs {
					if _, ok := in.(*ir.ClobberInstr); ok {
						n++
					}
				}
			}
		}
		return n
	}
	first := count()
	if first == 0 {
		t.Fatal("expected alias clobbers")
	}
	icp.Prepare(prog)
	if second := count(); second != first {
		t.Errorf("clobbers duplicated: %d -> %d", first, second)
	}
}

// TestFIWorklistLowersLateBoundPassThrough exercises the heart of
// Figure 3: a pass-through binding (fa, fb) is recorded while fa is
// still constant; a later call edge (around the cycle) lowers fa, and
// the worklist must transitively lower fb. Dropping the worklist would
// leave fb claiming the stale constant — unsound.
func TestFIWorklistLowersLateBoundPassThrough(t *testing.T) {
	src := `program p
proc main() { call a(3, 2) }
proc a(fa int, n int) {
  if n > 0 {
    call b(fa, n)
  }
  print fa
}
proc b(fb int, m int) {
  if m > 1 {
    call a(4, m - 1)
  }
  print fb
}`
	r := analyze(t, src, icp.Options{Method: icp.FlowInsensitive, PropagateFloats: true})
	if got := constFormalNames(r, "a"); len(got) != 0 {
		t.Errorf("a formals must all be ⊥: %v", got)
	}
	if got := constFormalNames(r, "b"); len(got) != 0 {
		t.Errorf("b formals must all be ⊥ (worklist!): %v", got)
	}
	// And the claim set is runtime-sound.
	prog := r.Ctx.Prog
	run := interpRun(t, prog)
	if bad := soundnessCheck(r, run); len(bad) > 0 {
		t.Errorf("unsound: %s", bad[0])
	}
}

// TestFIChainedPassThroughStaysConstant: the positive counterpart — a
// two-level pass-through chain with agreeing constants survives.
func TestFIChainedPassThroughStaysConstant(t *testing.T) {
	src := `program p
proc main() {
  call a(3)
  call a(3)
}
proc a(fa int) { call b(fa) }
proc b(fb int) { call c(fb) }
proc c(fc int) { print fc }`
	r := analyze(t, src, icp.Options{Method: icp.FlowInsensitive, PropagateFloats: true})
	for _, pn := range []string{"a", "b", "c"} {
		got := constFormalNames(r, pn)
		if len(got) != 1 {
			t.Errorf("%s: %v, want one constant 3", pn, got)
			continue
		}
		for _, v := range got {
			if v != 3 {
				t.Errorf("%s: %v", pn, got)
			}
		}
	}
}

// TestContextSSA checks Context.SSA's slot discipline: concurrent
// callers share one build per slot, a slot filled beforehand comes
// back unchanged, and InvalidateSSA makes the next call rebuild.
func TestContextSSA(t *testing.T) {
	ctx := icp.Prepare(testutil.MustBuild(t, Figure1))
	n := len(ctx.CG.Reachable)
	const callers = 8
	got := make([][]*ssa.SSA, callers)
	var wg sync.WaitGroup
	for c := range got {
		got[c] = make([]*ssa.SSA, n)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < n; k++ {
				i := (k + c) % n
				got[c][i] = ctx.SSA(i)
			}
		}(c)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if got[0][i] == nil || got[0][i] != ctx.SSACache[i] {
			t.Fatalf("slot %d: SSA %p, cache %p", i, got[0][i], ctx.SSACache[i])
		}
		for c := 1; c < callers; c++ {
			if got[c][i] != got[0][i] {
				t.Errorf("slot %d: caller %d got %p, caller 0 got %p", i, c, got[c][i], got[0][i])
			}
		}
	}

	pre := icp.Prepare(testutil.MustBuild(t, Figure1))
	s := ssa.Build(pre.Prog.FuncOf[pre.CG.Reachable[1]])
	pre.SSACache = make([]*ssa.SSA, len(pre.CG.Reachable))
	pre.SSACache[1] = s
	if pre.SSA(1) != s {
		t.Error("a prefilled slot was rebuilt")
	}

	old := ctx.SSA(1)
	ctx.InvalidateSSA()
	if ctx.SSACache != nil {
		t.Error("InvalidateSSA kept the cache")
	}
	if s := ctx.SSA(1); s == nil || s == old {
		t.Errorf("slot 1 after InvalidateSSA: %p, before: %p", s, old)
	}
}
