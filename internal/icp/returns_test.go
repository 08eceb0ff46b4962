package icp_test

import (
	"fmt"
	"strings"
	"testing"

	"fsicp/internal/driver"
	"fsicp/internal/icp"
	"fsicp/internal/incr"
	"fsicp/internal/lattice"
	"fsicp/internal/progen"
	"fsicp/internal/sem"
	"fsicp/internal/testutil"
)

func analyzeRet(t *testing.T, src string) *icp.Result {
	t.Helper()
	prog := testutil.MustBuild(t, src)
	ctx := icp.Prepare(prog)
	return icp.Analyze(ctx, icp.Options{
		Method:          icp.FlowSensitive,
		PropagateFloats: true,
		ReturnConstants: true,
	})
}

func TestReturnConstantFunction(t *testing.T) {
	r := analyzeRet(t, `program p
proc main() {
  var x int
  x = answer()
  print x
}
func answer() int { return 42 }`)
	ans := r.Ctx.Prog.Sem.ProcByName["answer"]
	if got := r.Returns[ans]; !got.IsConst() || got.Val.I != 42 {
		t.Errorf("returns(answer) = %v, want 42", got)
	}
	// The caller's second analysis folds x = 42 into the print.
	main := r.Ctx.Prog.Sem.Main
	intra := r.Intra[main]
	found := false
	for d := range intra.S.Defs {
		if v := intra.ValueOf(int32(d)); v.IsConst() && v.Val.I == 42 {
			found = true
		}
	}
	if !found {
		t.Error("caller did not absorb the returned constant")
	}
}

func TestReturnDependsOnArgs(t *testing.T) {
	r := analyzeRet(t, `program p
proc main() {
  var x int
  x = inc(4)
  print x
}
func inc(n int) int { return n + 1 }`)
	inc := r.Ctx.Prog.Sem.ProcByName["inc"]
	// n is 4 at every call, so inc returns 5.
	if got := r.Returns[inc]; !got.IsConst() || got.Val.I != 5 {
		t.Errorf("returns(inc) = %v, want 5", got)
	}
}

func TestReturnNotConstant(t *testing.T) {
	r := analyzeRet(t, `program p
proc main() {
  var x int
  x = pick(1)
  x = pick(2)
  print x
}
func pick(n int) int { return n }`)
	pick := r.Ctx.Prog.Sem.ProcByName["pick"]
	if got := r.Returns[pick]; !got.IsBottom() {
		t.Errorf("returns(pick) = %v, want ⊥", got)
	}
}

func TestByRefOutParameterConstant(t *testing.T) {
	// setit writes 9 into its by-ref formal; in the reverse traversal
	// the caller's second analysis sees x = 9 after the call — the
	// §3.2 "returned constant parameter". (Entry environments of
	// procedures already processed in the forward pass are not
	// refreshed: that would require iteration, which the method
	// deliberately avoids.)
	r := analyzeRet(t, `program p
proc main() {
  var x int
  call setit(x)
  call consume(x)
}
proc setit(o int) { o = 9 }
proc consume(c int) { print c }`)
	setit := r.Ctx.Prog.Sem.ProcByName["setit"]
	o := setit.Params[0]
	if got := r.ExitEnv[setit].Get(o); !got.IsConst() || got.Val.I != 9 {
		t.Fatalf("exit(setit).o = %v, want 9", got)
	}
	// main's second analysis folds x to 9 at the consume call site.
	main := r.Ctx.Prog.Sem.Main
	intra := r.Intra[main]
	var got bool
	for _, call := range r.Ctx.Prog.FuncOf[main].Calls {
		if call.Callee.Name == "consume" {
			v := intra.ArgValue(call, 0)
			if v.IsConst() && v.Val.I == 9 {
				got = true
			} else {
				t.Errorf("arg at consume call = %v, want 9", v)
			}
		}
	}
	if !got {
		t.Error("consume call not found")
	}
}

// Without the extension the same program must NOT find c constant —
// the by-ref write kills x.
func TestByRefOutWithoutExtension(t *testing.T) {
	src := `program p
proc main() {
  var x int
  call setit(x)
  call consume(x)
}
proc setit(o int) { o = 9 }
proc consume(c int) { print c }`
	r := analyze(t, src, icp.Options{Method: icp.FlowSensitive, PropagateFloats: true})
	if got := constFormalNames(r, "consume"); len(got) != 0 {
		t.Errorf("without extension: %v, want none", got)
	}
}

func TestGlobalExitConstant(t *testing.T) {
	r := analyzeRet(t, `program p
global g int = 0
proc main() {
  use g
  call init()
  call consume()
}
proc init() {
  use g
  g = 77
}
proc consume() {
  use g
  print g
}`)
	ini := r.Ctx.Prog.Sem.ProcByName["init"]
	g := r.Ctx.Prog.Sem.Globals[0]
	if got := r.ExitEnv[ini].Get(g); !got.IsConst() || got.Val.I != 77 {
		t.Errorf("exit(init).g = %v, want 77", got)
	}
	// main's second analysis sees g=77 after the call; but consume's
	// *entry* env was fixed in the forward pass. The exported exit env
	// is the extension's deliverable here.
}

func TestRecursiveReturnFallsBack(t *testing.T) {
	r := analyzeRet(t, `program p
proc main() {
  var x int
  x = fact(5)
  print x
}
func fact(n int) int {
  if n <= 1 {
    return 1
  }
  return n * fact(n - 1)
}`)
	fact := r.Ctx.Prog.Sem.ProcByName["fact"]
	// The self-call is a back edge in the reverse traversal: fallback
	// ⊥, so the return value is not constant. Soundness, not precision.
	if got := r.Returns[fact]; got.IsConst() {
		t.Errorf("returns(fact) = %v, must not be a constant", got)
	}
}

func TestConditionallyConstantReturn(t *testing.T) {
	// The return value is constant only because the entry constant
	// prunes a branch — the extension composes with flow-sensitivity.
	r := analyzeRet(t, `program p
proc main() {
  var x int
  x = sel(0)
  print x
}
func sel(flag int) int {
  if flag != 0 {
    return 1
  }
  return 2
}`)
	sel := r.Ctx.Prog.Sem.ProcByName["sel"]
	if got := r.Returns[sel]; !got.IsConst() || got.Val.I != 2 {
		t.Errorf("returns(sel) = %v, want 2", got)
	}
}

func TestUseComputation(t *testing.T) {
	prog := testutil.MustBuild(t, `program p
global g int = 1
global h int = 2
proc main() {
  use g, h
  call f(3)
}
proc f(a int) {
  use g, h
  g = 5
  print g, h, a
}`)
	ctx := icp.Prepare(prog)
	use := icp.ComputeUse(ctx)
	f := prog.Sem.ProcByName["f"]
	names := map[string]bool{}
	for _, v := range use[f] {
		names[v.Name] = true
	}
	// g is written before read: not upward-exposed. h and a are.
	if names["g"] {
		t.Errorf("g must not be in USE(f): %v", names)
	}
	if !names["h"] || !names["a"] {
		t.Errorf("h and a must be in USE(f): %v", names)
	}
	// main: the call to f exposes h and the by-ref... the actual 3 is a
	// temp; only h flows up (g is defined-before-use only inside f, but
	// at main's call, f USEs h → h ∈ USE(main)).
	mnames := map[string]bool{}
	for _, v := range use[prog.Sem.Main] {
		mnames[v.Name] = true
	}
	if !mnames["h"] {
		t.Errorf("h must be in USE(main): %v", mnames)
	}
	if mnames["g"] {
		t.Errorf("g must not be in USE(main): %v", mnames)
	}
}

func TestUseMustDefOnAllPaths(t *testing.T) {
	prog := testutil.MustBuild(t, `program p
global g int = 1
proc main() {
  use g
  var c int
  read c
  if c > 0 {
    g = 2
  }
  print g
}`)
	ctx := icp.Prepare(prog)
	use := icp.ComputeUse(ctx)
	// g is defined on only one path before the print: upward-exposed.
	found := false
	for _, v := range use[prog.Sem.Main] {
		if v.Name == "g" {
			found = true
		}
	}
	if !found {
		t.Error("g must be upward-exposed (defined on only one path)")
	}
}

func TestUseRecursionTerminates(t *testing.T) {
	prog := testutil.MustBuild(t, `program p
global g int = 1
proc main() { call r(3) }
proc r(n int) {
  use g
  if n > 0 {
    print g
    call r(n - 1)
  }
}`)
	ctx := icp.Prepare(prog)
	use := icp.ComputeUse(ctx)
	found := false
	for _, v := range use[prog.Sem.ProcByName["r"]] {
		if v.Name == "g" {
			found = true
		}
	}
	if !found {
		t.Error("g must be in USE(r)")
	}
}

// TestReturnsRefresh: with the extra forward pass, a constant that
// flows out of one callee (a by-ref out-parameter) and into another
// procedure's entry becomes an entry constant there — the scenario the
// two-traversal design cannot close.
func TestReturnsRefresh(t *testing.T) {
	src := `program p
proc main() {
  var x int
  call setit(x)
  call consume(x)
}
proc setit(o int) { o = 9 }
proc consume(c int) { print c }`
	prog := testutil.MustBuild(t, src)
	ctx := icp.Prepare(prog)

	two := icp.Analyze(ctx, icp.Options{Method: icp.FlowSensitive, PropagateFloats: true, ReturnConstants: true})
	consume := ctx.Prog.Sem.ProcByName["consume"]
	if _, ok := two.EntryConstant(consume, consume.Params[0]); ok {
		t.Fatal("two-traversal design should not refresh consume's entry")
	}

	three := icp.Analyze(ctx, icp.Options{Method: icp.FlowSensitive, PropagateFloats: true, ReturnConstants: true, ReturnsRefresh: true})
	if v, ok := three.EntryConstant(consume, consume.Params[0]); !ok || v.I != 9 {
		t.Errorf("refresh pass: c = %v,%v, want 9", v, ok)
	}
}

// TestReturnsRefreshFunctionResultChain: f's constant result feeds g's
// entry through a local.
func TestReturnsRefreshFunctionResultChain(t *testing.T) {
	src := `program p
proc main() {
  var x int
  x = answer()
  call g(x)
}
func answer() int { return 42 }
proc g(a int) { print a }`
	prog := testutil.MustBuild(t, src)
	ctx := icp.Prepare(prog)
	three := icp.Analyze(ctx, icp.Options{Method: icp.FlowSensitive, PropagateFloats: true, ReturnConstants: true, ReturnsRefresh: true})
	g := ctx.Prog.Sem.ProcByName["g"]
	if v, ok := three.EntryConstant(g, g.Params[0]); !ok || v.I != 42 {
		t.Errorf("refresh: a = %v,%v, want 42", v, ok)
	}
}

// TestIncrementalReturnsMatchCold runs the incremental engine with
// return constants on over a progen.Edit stream and compares, after
// every edit, the returns traversal's own outputs with a cold analysis
// of the same version: each procedure's returned value, its exit
// environment and its returns-stage summary. The facade shows exit
// environments only through their effect on callers.
func TestIncrementalReturnsMatchCold(t *testing.T) {
	files, _ := progen.GenerateModules(progen.ModuleConfig{
		Seed: 7, Modules: 3, ProcsPerModule: 16, Globals: 5, BlockData: 4, AllowFloats: true,
	})
	src := progen.Flatten(files)
	opts := icp.Options{Method: icp.FlowSensitive, PropagateFloats: true, ReturnConstants: true, Workers: 2}
	eng := incr.NewEngine()
	reusedEver := false
	for i := 0; i < 40; i++ {
		if i > 0 {
			src = progen.Edit(src, int64(i))
		}
		inc := opts
		inc.Incr, inc.Trace = eng, driver.NewTrace()
		got := icp.Analyze(icp.Prepare(testutil.MustBuild(t, src)), inc)
		want := icp.Analyze(icp.Prepare(testutil.MustBuild(t, src)), opts)
		for k, wp := range want.Ctx.CG.Reachable {
			gp := got.Ctx.CG.Reachable[k]
			if !got.Returns[gp].Eq(want.Returns[wp]) {
				t.Fatalf("edit %d: %s returns %v, cold %v", i, wp.Name, got.Returns[gp], want.Returns[wp])
			}
			if g, w := byVar(got.ExitEnv[gp]), byVar(want.ExitEnv[wp]); !sameElems(g, w) {
				t.Fatalf("edit %d: %s exit environment %v, cold %v", i, wp.Name, g, w)
			}
			if !sameSummary(got.Proc[gp], want.Proc[wp]) {
				t.Fatalf("edit %d: %s returns-stage summary %+v, cold %+v", i, wp.Name, *got.Proc[gp], *want.Proc[wp])
			}
		}
		for _, st := range inc.Trace.Passes() {
			if st.Name == "returns" && st.Cached && !strings.Contains(st.Notes, "reused=0 ") {
				reusedEver = true
			}
		}
	}
	if !reusedEver {
		t.Error("the returns traversal never reused a record across 40 edits")
	}
}

// byVar keys an environment by variable, across loads: "proc.name"
// for a formal, the bare name for a global, so a formal that shares a
// global's name stays apart from it.
func byVar(env lattice.Env[*sem.Var]) map[string]lattice.Elem {
	m := make(map[string]lattice.Elem, len(env))
	for v, e := range env {
		m[v.String()] = e
	}
	return m
}

// sameElems compares two string-keyed environments bit-exactly.
func sameElems(a, b map[string]lattice.Elem) bool {
	if len(a) != len(b) {
		return false
	}
	for n, e := range a {
		if o, ok := b[n]; !ok || !o.Eq(e) {
			return false
		}
	}
	return true
}

// sameFrame compares two frames bit-exactly.
func sameFrame(a, b []lattice.Elem) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Eq(b[i]) {
			return false
		}
	}
	return true
}

func sameSummary(a, b *incr.ProcSummary) bool {
	if a.Dead != b.Dead || a.BackEdges != b.BackEdges || a.Degraded != b.Degraded ||
		!sameFrame(a.Entry, b.Entry) || len(a.Sites) != len(b.Sites) {
		return false
	}
	for k, sa := range a.Sites {
		sb := b.Sites[k]
		if sa.Reachable != sb.Reachable || len(sa.Args) != len(sb.Args) || len(sa.GlobIdx) != len(sb.GlobIdx) {
			return false
		}
		for j := range sa.Args {
			if !sa.Args[j].Eq(sb.Args[j]) {
				return false
			}
		}
		for j := range sa.GlobIdx {
			if sa.GlobIdx[j] != sb.GlobIdx[j] || !sa.GlobVals[j].Eq(sb.GlobVals[j]) {
				return false
			}
		}
	}
	return true
}

// TestOneShotEngineKeepsNoReturnsRecords: a one-shot engine serves its
// run the value cache alone, so the returns traversal builds no record
// for a later run to read. A second run over it re-runs every live
// procedure, where a Session's engine keeps every one.
func TestOneShotEngineKeepsNoReturnsRecords(t *testing.T) {
	files, _ := progen.GenerateModules(progen.ModuleConfig{Seed: 7, Modules: 2, ProcsPerModule: 8, Globals: 3, AllowFloats: true})
	ctx := icp.Prepare(testutil.MustBuild(t, progen.Flatten(files)))
	for _, oneShot := range []bool{false, true} {
		eng := incr.NewEngine()
		if oneShot {
			eng.SetOneShot()
		}
		var res *icp.Result
		var notes string
		for run := 0; run < 2; run++ {
			tr := driver.NewTrace()
			res = icp.Analyze(ctx, icp.Options{Method: icp.FlowSensitive, PropagateFloats: true, ReturnConstants: true, Incr: eng, Trace: tr})
			for _, st := range tr.Passes() {
				if st.Name == "returns" {
					notes = st.Notes
				}
			}
		}
		live := len(ctx.CG.Reachable) - len(res.Dead)
		want := fmt.Sprintf("reused=%d run=0", live)
		if oneShot {
			want = fmt.Sprintf("reused=0 run=%d", live)
		}
		if notes != want {
			t.Errorf("one-shot=%v: the second run's returns row says %q, want %q", oneShot, notes, want)
		}
	}
}
