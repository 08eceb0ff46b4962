package jumpfunc_test

import (
	"sort"
	"testing"

	"fsicp/internal/icp"
	"fsicp/internal/jumpfunc"
	"fsicp/internal/testutil"
)

// figure1 mirrors the paper's Figure 1 program (see the icp tests).
const figure1 = `program figure1
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

func run(t *testing.T, src string, k jumpfunc.Kind) *jumpfunc.Result {
	t.Helper()
	prog := testutil.MustBuild(t, src)
	ctx := icp.Prepare(prog)
	return jumpfunc.Analyze(ctx, k)
}

func constNames(r *jumpfunc.Result) []string {
	var out []string
	for _, p := range r.Ctx.CG.Reachable {
		for _, f := range r.ConstantFormals(p) {
			out = append(out, f.Name)
		}
	}
	sort.Strings(out)
	return out
}

func eq(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFigure1PerMethod reproduces the paper's Figure 1 precision table
// for the four jump-function methods:
//
//	LITERAL      f1, f3
//	INTRA        f1, f3, f5
//	PASS-THROUGH f1, f3, f4, f5
//	POLYNOMIAL   f1, f3, f4, f5
func TestFigure1PerMethod(t *testing.T) {
	cases := []struct {
		kind jumpfunc.Kind
		want []string
	}{
		{jumpfunc.Literal, []string{"f1", "f3"}},
		{jumpfunc.Intra, []string{"f1", "f3", "f5"}},
		{jumpfunc.PassThrough, []string{"f1", "f3", "f4", "f5"}},
		{jumpfunc.Polynomial, []string{"f1", "f3", "f4", "f5"}},
	}
	for _, c := range cases {
		t.Run(c.kind.String(), func(t *testing.T) {
			r := run(t, figure1, c.kind)
			got := constNames(r)
			if !eq(got, c.want) {
				t.Errorf("%v finds %v, want %v", c.kind, got, c.want)
			}
		})
	}
}

func TestPolynomialArgument(t *testing.T) {
	src := `program p
proc main() { call a(3, 4) }
proc a(x int, y int) {
  call b(2 * x + y - 1, x * x)
}
proc b(u int, v int) { print u, v }`
	r := run(t, src, jumpfunc.Polynomial)
	b := r.Ctx.Prog.Sem.ProcByName["b"]
	if e := r.Formals[b.Params[0]]; !e.IsConst() || e.Val().I != 9 {
		t.Errorf("u = %v, want 9", e)
	}
	if e := r.Formals[b.Params[1]]; !e.IsConst() || e.Val().I != 9 {
		t.Errorf("v = %v, want 9", e)
	}
	// PASS-THROUGH cannot evaluate the expressions.
	rp := run(t, src, jumpfunc.PassThrough)
	bp := rp.Ctx.Prog.Sem.ProcByName["b"]
	if e := rp.Formals[bp.Params[0]]; e.IsConst() {
		t.Errorf("pass-through should not find u: %v", e)
	}
}

func TestModifiedFormalNotPassedThrough(t *testing.T) {
	src := `program p
proc main() { call a(3) }
proc a(x int) {
  x = x + 1
  call b(x)
}
proc b(u int) { print u }`
	for _, k := range []jumpfunc.Kind{jumpfunc.PassThrough, jumpfunc.Polynomial} {
		r := run(t, src, k)
		b := r.Ctx.Prog.Sem.ProcByName["b"]
		if e := r.Formals[b.Params[0]]; e.IsConst() {
			t.Errorf("%v: modified formal must not pass through: %v", k, e)
		}
	}
}

func TestDivisionNotPolynomial(t *testing.T) {
	src := `program p
proc main() { call a(8) }
proc a(x int) { call b(x / 2) }
proc b(u int) { print u }`
	r := run(t, src, jumpfunc.Polynomial)
	b := r.Ctx.Prog.Sem.ProcByName["b"]
	// x/2 is not a polynomial; INTRA fallback sees x as unknown.
	if e := r.Formals[b.Params[0]]; e.IsConst() {
		t.Errorf("x/2 must not be summarised: %v", e)
	}
}

func TestRecursionIteratesSoundly(t *testing.T) {
	src := `program p
proc main() { call r(7, 0) }
proc r(k int, n int) {
  if n < 3 {
    call r(k, n + 1)
  }
  print k, n
}`
	r := run(t, src, jumpfunc.Polynomial)
	rp := r.Ctx.Prog.Sem.ProcByName["r"]
	if e := r.Formals[rp.Params[0]]; !e.IsConst() || e.Val().I != 7 {
		t.Errorf("k = %v, want 7 (identity through the cycle)", e)
	}
	if e := r.Formals[rp.Params[1]]; e.IsConst() {
		t.Errorf("n = %v, must not be constant (n+1 meets 0)", e)
	}
}

func TestMeetAcrossSites(t *testing.T) {
	src := `program p
proc main() {
  call f(5)
  call f(2 + 3)
  call g(5)
  call g(6)
}
proc f(a int) { print a }
proc g(b int) { print b }`
	r := run(t, src, jumpfunc.Polynomial)
	f := r.Ctx.Prog.Sem.ProcByName["f"]
	g := r.Ctx.Prog.Sem.ProcByName["g"]
	if e := r.Formals[f.Params[0]]; !e.IsConst() || e.Val().I != 5 {
		t.Errorf("f.a = %v, want 5", e)
	}
	if e := r.Formals[g.Params[0]]; e.IsConst() {
		t.Errorf("g.b = %v, want non-constant", e)
	}
	// LITERAL misses 2+3.
	rl := run(t, src, jumpfunc.Literal)
	fl := rl.Ctx.Prog.Sem.ProcByName["f"]
	if e := rl.Formals[fl.Params[0]]; e.IsConst() {
		t.Errorf("literal: f.a = %v, want non-constant (2+3 not literal)", e)
	}
}

func TestIntraSeesLocalConstants(t *testing.T) {
	src := `program p
proc main() {
  var t int
  t = 6 * 7
  call f(t)
}
proc f(a int) { print a }`
	r := run(t, src, jumpfunc.Intra)
	f := r.Ctx.Prog.Sem.ProcByName["f"]
	if e := r.Formals[f.Params[0]]; !e.IsConst() || e.Val().I != 42 {
		t.Errorf("a = %v, want 42", e)
	}
}

func TestArgValsShapeAndNegatedLiteral(t *testing.T) {
	src := `program p
proc main() { call f(-3) }
proc f(a int) { print a }`
	r := run(t, src, jumpfunc.Literal)
	f := r.Ctx.Prog.Sem.ProcByName["f"]
	if e := r.Formals[f.Params[0]]; !e.IsConst() || e.Val().I != -3 {
		t.Errorf("a = %v, want -3 (negated literal is immediate)", e)
	}
	main := r.Ctx.Prog.Sem.Main
	call := r.Ctx.Prog.FuncOf[main].Calls[0]
	if vals := r.ArgVals[call]; len(vals) != 1 || !vals[0].IsConst() {
		t.Errorf("argvals = %v", vals)
	}
}
