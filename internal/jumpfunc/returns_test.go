package jumpfunc_test

import (
	"testing"

	"fsicp/internal/icp"
	"fsicp/internal/jumpfunc"
	"fsicp/internal/testutil"
)

func runOpts(t *testing.T, src string, opts jumpfunc.Options) *jumpfunc.Result {
	t.Helper()
	prog := testutil.MustBuild(t, src)
	ctx := icp.Prepare(prog)
	return jumpfunc.AnalyzeWithReturns(ctx, opts)
}

func TestReturnJumpLiteralFunction(t *testing.T) {
	src := `program p
proc main() {
  call g(answer())
}
func answer() int { return 42 }
proc g(a int) { print a }`
	// Without returns: the argument is a call → ⊥.
	off := runOpts(t, src, jumpfunc.Options{Kind: jumpfunc.Polynomial})
	g := off.Ctx.Prog.Sem.ProcByName["g"]
	if e := off.Formals[g.Params[0]]; e.IsConst() {
		t.Errorf("without returns: a = %v, want non-constant", e)
	}
	// With returns: the summary yields 42.
	on := runOpts(t, src, jumpfunc.Options{Kind: jumpfunc.Polynomial, Returns: true})
	g2 := on.Ctx.Prog.Sem.ProcByName["g"]
	if e := on.Formals[g2.Params[0]]; !e.IsConst() || e.Val().I != 42 {
		t.Errorf("with returns: a = %v, want 42", e)
	}
}

func TestReturnJumpPolynomialOverFormals(t *testing.T) {
	src := `program p
proc main() {
  call consume(double(3) + 1)
}
func double(n int) int { return n * 2 }
proc consume(c int) { print c }`
	on := runOpts(t, src, jumpfunc.Options{Kind: jumpfunc.Polynomial, Returns: true})
	consume := on.Ctx.Prog.Sem.ProcByName["consume"]
	// double(3)+1: the top expression is not a bare call, so only the
	// INTRA fallback applies... which evaluates the caller's SCC where
	// the call result is unknown. This documents the framework's
	// syntactic scope: constant only for direct call arguments.
	if e := on.Formals[consume.Params[0]]; e.IsConst() {
		t.Logf("note: composite call expressions are summarised: %v", e)
	}

	src2 := `program p
proc main() {
  call consume(double(3))
}
func double(n int) int { return n * 2 }
proc consume(c int) { print c }`
	on2 := runOpts(t, src2, jumpfunc.Options{Kind: jumpfunc.Polynomial, Returns: true})
	consume2 := on2.Ctx.Prog.Sem.ProcByName["consume"]
	if e := on2.Formals[consume2.Params[0]]; !e.IsConst() || e.Val().I != 6 {
		t.Errorf("double(3) arg = %v, want 6", e)
	}
}

func TestReturnJumpThroughFormalChain(t *testing.T) {
	// The call's own argument is a formal of the caller: the summary
	// composes with the forward jump function.
	src := `program p
proc main() { call mid(5) }
proc mid(m int) {
  call consume(inc(m))
}
func inc(n int) int { return n + 1 }
proc consume(c int) { print c }`
	on := runOpts(t, src, jumpfunc.Options{Kind: jumpfunc.Polynomial, Returns: true})
	consume := on.Ctx.Prog.Sem.ProcByName["consume"]
	if e := on.Formals[consume.Params[0]]; !e.IsConst() || e.Val().I != 6 {
		t.Errorf("inc(m) with m=5 = %v, want 6", e)
	}
}

func TestReturnJumpNonConstant(t *testing.T) {
	src := `program p
proc main() {
  call g(pick(1))
  call g(pick(2))
}
func pick(n int) int { return n }
proc consume(c int) { print c }
proc g(a int) { print a }`
	on := runOpts(t, src, jumpfunc.Options{Kind: jumpfunc.Polynomial, Returns: true})
	g := on.Ctx.Prog.Sem.ProcByName["g"]
	if e := on.Formals[g.Params[0]]; e.IsConst() {
		t.Errorf("pick(1) vs pick(2): a = %v, want non-constant", e)
	}
}

func TestReturnJumpConditionalReturnStaysUnknown(t *testing.T) {
	// The summary is syntactic; a branch-dependent return is the meet
	// of the per-return summaries.
	src := `program p
proc main() {
  call g(sel(0))
}
func sel(n int) int {
  if n != 0 {
    return 1
  }
  return 2
}
proc g(a int) { print a }`
	on := runOpts(t, src, jumpfunc.Options{Kind: jumpfunc.Polynomial, Returns: true})
	g := on.Ctx.Prog.Sem.ProcByName["g"]
	// meet(1, 2) = ⊥ — jump functions cannot prune the branch; the
	// paper's interleaved flow-sensitive method can (contrast with the
	// icp return-constant tests).
	if e := on.Formals[g.Params[0]]; e.IsConst() {
		t.Errorf("sel(0) = %v, want non-constant under jump functions", e)
	}
}

func TestLiteralKindReturnsOnlyLiteralSummaries(t *testing.T) {
	src := `program p
proc main() {
  call g(idf(7))
}
func idf(n int) int { return n }
proc g(a int) { print a }`
	on := runOpts(t, src, jumpfunc.Options{Kind: jumpfunc.Literal, Returns: true})
	g := on.Ctx.Prog.Sem.ProcByName["g"]
	// LITERAL summaries cannot express identity: ⊥.
	if e := on.Formals[g.Params[0]]; e.IsConst() {
		t.Errorf("literal-kind return summary too strong: %v", e)
	}
	poly := runOpts(t, src, jumpfunc.Options{Kind: jumpfunc.Polynomial, Returns: true})
	gp := poly.Ctx.Prog.Sem.ProcByName["g"]
	if e := poly.Formals[gp.Params[0]]; !e.IsConst() || e.Val().I != 7 {
		t.Errorf("identity summary: %v, want 7", e)
	}
}
