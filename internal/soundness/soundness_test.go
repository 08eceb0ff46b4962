package soundness_test

import (
	"slices"
	"strings"
	"testing"

	"fsicp/internal/icp"
	"fsicp/internal/incr"
	"fsicp/internal/interp"
	"fsicp/internal/jumpfunc"
	"fsicp/internal/lattice"
	"fsicp/internal/soundness"
	"fsicp/internal/testutil"
	"fsicp/internal/val"
)

const src = `program s
global g int = 3
proc main() {
  use g
  call f(1)
  call f(1)
}
proc f(a int) {
  use g
  print a, g
}`

func setup(t *testing.T) (*icp.Context, *icp.Result, *interp.Result) {
	t.Helper()
	prog := testutil.MustBuild(t, src)
	ctx := icp.Prepare(prog)
	r := icp.Analyze(ctx, icp.Options{Method: icp.FlowSensitive, PropagateFloats: true})
	run := interp.Run(ctx.Prog, interp.Options{TraceGlobalsAtCalls: true})
	if run.Err != nil {
		t.Fatal(run.Err)
	}
	return ctx, r, run
}

func TestCleanResultPasses(t *testing.T) {
	_, r, run := setup(t)
	if bad := soundness.CheckICP(r, run.Trace); len(bad) != 0 {
		t.Fatalf("unexpected violations: %v", bad)
	}
}

// The checker must actually detect lies: corrupt the result in each
// dimension and expect a violation.
func TestDetectsWrongEntryConstant(t *testing.T) {
	ctx, r, run := setup(t)
	f := ctx.Prog.Sem.ProcByName["f"]
	r.Entry[f][f.Params[0]] = lattice.Const(val.Int(99))
	bad := soundness.CheckICP(r, run.Trace)
	if len(bad) == 0 || !strings.Contains(bad[0], "claimed constant 99") {
		t.Fatalf("violation not detected: %v", bad)
	}
}

// corruptSummary installs, at position i of r.Proc, a copy of the
// summary there with edit applied. Without a returns traversal the
// call-site accessors read Proc, and the copy leaves the analysed
// summary, which a value cache may share, as it was.
func corruptSummary(r *icp.Result, i int, edit func(s *incr.ProcSummary)) {
	c := *r.Proc[i]
	c.Sites = slices.Clone(c.Sites)
	for k := range c.Sites {
		c.Sites[k].Args = slices.Clone(c.Sites[k].Args)
		c.Sites[k].GlobVals = slices.Clone(c.Sites[k].GlobVals)
	}
	edit(&c)
	r.Proc[i] = &c
}

func TestDetectsWrongArgValue(t *testing.T) {
	_, r, run := setup(t)
	corruptSummary(r, 0, func(s *incr.ProcSummary) { s.Sites[0].Args[0] = lattice.Const(val.Int(42)) })
	bad := soundness.CheckICP(r, run.Trace)
	if len(bad) == 0 || !strings.Contains(bad[0], "arg 0") {
		t.Fatalf("violation not detected: %v", bad)
	}
}

func TestDetectsFalseUnreachable(t *testing.T) {
	_, r, run := setup(t)
	corruptSummary(r, 0, func(s *incr.ProcSummary) { s.Sites[0].Reachable = false })
	bad := soundness.CheckICP(r, run.Trace)
	if len(bad) == 0 || !strings.Contains(bad[0], "unreachable but executed") {
		t.Fatalf("violation not detected: %v", bad)
	}
}

func TestDetectsFalseDeadProc(t *testing.T) {
	ctx, r, run := setup(t)
	corruptSummary(r, r.CG.PosOf(ctx.Prog.Sem.ProcByName["f"]), func(s *incr.ProcSummary) { s.Dead = true })
	bad := soundness.CheckICP(r, run.Trace)
	if len(bad) == 0 || !strings.Contains(bad[0], "dynamically dead") {
		t.Fatalf("violation not detected: %v", bad)
	}
}

func TestDetectsWrongGlobalAtCall(t *testing.T) {
	_, r, run := setup(t)
	corruptSummary(r, 0, func(s *incr.ProcSummary) {
		for j := range s.Sites[0].GlobVals {
			s.Sites[0].GlobVals[j] = lattice.Const(val.Int(123))
		}
	})
	bad := soundness.CheckICP(r, run.Trace)
	if len(bad) == 0 || !strings.Contains(bad[0], "global g claimed 123") {
		t.Fatalf("violation not detected: %v", bad)
	}
}

func TestDetectsWrongReturn(t *testing.T) {
	prog := testutil.MustBuild(t, `program p
proc main() {
  var x int
  x = f()
  print x
}
func f() int { return 5 }`)
	ctx := icp.Prepare(prog)
	r := icp.Analyze(ctx, icp.Options{Method: icp.FlowSensitive, PropagateFloats: true, ReturnConstants: true})
	run := interp.Run(ctx.Prog, interp.Options{})
	if run.Err != nil {
		t.Fatal(run.Err)
	}
	if bad := soundness.CheckICP(r, run.Trace); len(bad) != 0 {
		t.Fatalf("clean result flagged: %v", bad)
	}
	r.Returns[r.CG.PosOf(ctx.Prog.Sem.ProcByName["f"])] = lattice.Const(val.Int(6))
	bad := soundness.CheckICP(r, run.Trace)
	if len(bad) == 0 || !strings.Contains(bad[0], "return claimed 6") {
		t.Fatalf("violation not detected: %v", bad)
	}
}

func TestJumpChecker(t *testing.T) {
	prog := testutil.MustBuild(t, src)
	ctx := icp.Prepare(prog)
	r := jumpfunc.Analyze(ctx, jumpfunc.Literal)
	run := interp.Run(ctx.Prog, interp.Options{})
	if bad := soundness.CheckJump(r, run.Trace); len(bad) != 0 {
		t.Fatalf("clean result flagged: %v", bad)
	}
	f := ctx.Prog.Sem.ProcByName["f"]
	r.Formals[f.Params[0]] = lattice.Const(val.Int(77))
	bad := soundness.CheckJump(r, run.Trace)
	if len(bad) == 0 || !strings.Contains(bad[0], "claimed 77") {
		t.Fatalf("violation not detected: %v", bad)
	}
}
