package fsicp_test

import (
	"fmt"
	"strings"
	"testing"

	fsicp "fsicp"
)

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

func load(t *testing.T, src string) *fsicp.Program {
	t.Helper()
	p, err := fsicp.Load("test.mf", src)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return p
}

func names(cs []fsicp.Constant) string {
	var parts []string
	for _, c := range cs {
		parts = append(parts, c.Proc+"."+c.Var)
	}
	return strings.Join(parts, " ")
}

func TestFacadeFigure1(t *testing.T) {
	p := load(t, figure1)

	fs := p.Analyze(fsicp.Config{Method: fsicp.FlowSensitive, PropagateFloats: true})
	if got := names(fs.Constants()); got != "sub1.f1 sub2.f2 sub2.f3 sub2.f4 sub2.f5" {
		t.Errorf("FS constants: %s", got)
	}
	fi := p.Analyze(fsicp.Config{Method: fsicp.FlowInsensitive, PropagateFloats: true})
	if got := names(fi.Constants()); got != "sub1.f1 sub2.f3 sub2.f4" {
		t.Errorf("FI constants: %s", got)
	}

	// The Figure 1 per-method comparison.
	want := map[fsicp.JumpFunctionKind]string{
		fsicp.Literal:       "sub1.f1 sub2.f3",
		fsicp.IntraConstant: "sub1.f1 sub2.f3 sub2.f5",
		fsicp.PassThrough:   "sub1.f1 sub2.f3 sub2.f4 sub2.f5",
		fsicp.Polynomial:    "sub1.f1 sub2.f3 sub2.f4 sub2.f5",
	}
	for k, w := range want {
		if got := names(p.AnalyzeJumpFunctions(k).Constants()); got != w {
			t.Errorf("%v: %s, want %s", k, got, w)
		}
	}
}

func TestFacadeMetricsAndRun(t *testing.T) {
	p := load(t, figure1)
	a := p.Analyze(fsicp.Config{Method: fsicp.FlowSensitive, PropagateFloats: true})
	cs := a.CallSiteMetrics()
	if cs.Args != 5 || cs.Imm != 2 || cs.ConstArgs != 5 {
		t.Errorf("call-site metrics: %+v", cs)
	}
	en := a.EntryMetrics()
	if en.Formals != 5 || en.ConstFormals != 5 || en.Procs != 3 {
		t.Errorf("entry metrics: %+v", en)
	}
	if a.Duration() <= 0 {
		t.Error("no duration")
	}
	subs, folded, _ := a.Substitutions()
	if subs == 0 || folded == 0 {
		t.Errorf("substitutions %d folded %d", subs, folded)
	}

	// Run before and after ApplyTransform: identical output.
	before := p.Run(nil)
	if before.Err != nil || before.Output != "4\n" {
		t.Fatalf("run: %q err %v", before.Output, before.Err)
	}
	a.ApplyTransform()
	after := p.Run(nil)
	if after.Err != nil || after.Output != before.Output {
		t.Errorf("transformed output %q, want %q", after.Output, before.Output)
	}
}

func TestFacadeReturnConstants(t *testing.T) {
	p := load(t, `program p
proc main() {
  var x int
  x = answer()
  print x
}
func answer() int { return 42 }`)
	a := p.Analyze(fsicp.Config{Method: fsicp.FlowSensitive, PropagateFloats: true, ReturnConstants: true})
	if v, ok := a.ReturnConstant("answer"); !ok || v != "42" {
		t.Errorf("return constant: %q %v", v, ok)
	}
}

func TestFacadeErrors(t *testing.T) {
	if _, err := fsicp.Load("bad.mf", "program p\nproc main() { x = }"); err == nil {
		t.Error("expected parse error")
	}
	if _, err := fsicp.Load("bad.mf", "program p\nproc main() { y = 1 }"); err == nil {
		t.Error("expected check error")
	}
	if _, err := fsicp.Load("bad.mf", "program p\nproc other() {}"); err == nil {
		t.Error("expected missing-main error")
	}
}

func TestFacadeRecursion(t *testing.T) {
	p := load(t, `program p
proc main() { call r(7, 0) }
proc r(k int, n int) {
  if n < 3 {
    call r(k, n + 1)
  }
  print k, n
}`)
	if back, total := p.BackEdges(); back != 1 || total != 2 {
		t.Errorf("back edges %d/%d", back, total)
	}
	a := p.Analyze(fsicp.Config{Method: fsicp.FlowSensitive, PropagateFloats: true})
	if a.UsedFlowInsensitiveFallback() == 0 {
		t.Error("fallback not used")
	}
	if got := names(a.Constants()); got != "r.k" {
		t.Errorf("constants: %s", got)
	}
}

func TestFacadeRunWithInput(t *testing.T) {
	p := load(t, `program p
proc main() {
  var x int
  read x
  print x * 2
}`)
	r := p.Run(func(typeName string) any {
		if typeName == "int" {
			return 21
		}
		return nil
	})
	if r.Err != nil || r.Output != "42\n" {
		t.Errorf("output %q err %v", r.Output, r.Err)
	}
}

func TestFacadeDumpAndFormat(t *testing.T) {
	p := load(t, figure1)
	if !strings.Contains(p.DumpIR(), "call sub2") {
		t.Error("IR dump missing call")
	}
	if !strings.Contains(p.DumpCallGraph(), "sub1") {
		t.Error("call graph dump missing sub1")
	}
	if !strings.Contains(p.FormatSource(), "proc sub1(f1 int)") {
		t.Error("format missing signature")
	}
	if !strings.Contains(p.String(), "3 reachable") {
		t.Errorf("String: %s", p.String())
	}
	if got := p.Procedures(); len(got) != 3 || got[0] != "main" {
		t.Errorf("procedures: %v", got)
	}
}

func TestFacadeInline(t *testing.T) {
	p := load(t, figure1)
	before := p.Run(nil)
	n, rec, growth := p.Inline(4)
	if n < 2 || rec != 0 || growth <= 1.0 {
		t.Errorf("inline report: n=%d rec=%d growth=%.2f", n, rec, growth)
	}
	after := p.Run(nil)
	if after.Output != before.Output {
		t.Errorf("inlining changed output: %q vs %q", after.Output, before.Output)
	}
	// After full inlining an intraprocedural analysis folds the print.
	a := p.Analyze(fsicp.Config{Method: fsicp.FlowSensitive, PropagateFloats: true})
	subs, folded, _ := a.Substitutions()
	if subs == 0 || folded == 0 {
		t.Errorf("inlined program should still fold: subs=%d folded=%d", subs, folded)
	}
}

func TestFacadeJumpReturns(t *testing.T) {
	p := load(t, `program p
proc main() {
  call g(answer())
}
func answer() int { return 42 }
proc g(a int) { print a }`)
	off := p.AnalyzeJumpFunctions(fsicp.Polynomial)
	if got := names(off.Constants()); got != "" {
		t.Errorf("without returns: %q", got)
	}
	on := p.AnalyzeJumpFunctionsWithReturns(fsicp.Polynomial)
	if got := names(on.Constants()); got != "g.a" {
		t.Errorf("with returns: %q, want g.a", got)
	}
}

func TestFacadeClone(t *testing.T) {
	p := load(t, `program p
proc main() {
  var x int
  read x
  call kernel(64, 1)
  call kernel(64, 2)
  call kernel(x, 3)
}
proc kernel(size int, mode int) {
  var area int
  area = size * size
  print mode, area
}`)
	a := p.Analyze(fsicp.Config{Method: fsicp.FlowSensitive, PropagateFloats: true})
	if got := len(a.Constants()); got != 0 {
		t.Fatalf("pre-clone constants: %d", got)
	}
	cloned, retargeted := a.Clone(4)
	if cloned == 0 || retargeted == 0 {
		t.Fatalf("clone: %d/%d", cloned, retargeted)
	}
	a2 := p.Analyze(fsicp.Config{Method: fsicp.FlowSensitive, PropagateFloats: true})
	if got := names(a2.Constants()); !strings.Contains(got, "size") {
		t.Errorf("post-clone constants: %q", got)
	}
	input := func(string) any { return 7 }
	if r := p.Run(input); r.Err != nil || r.Output != "1 4096\n2 4096\n3 49\n" {
		t.Errorf("cloned run: %q err %v", r.Output, r.Err)
	}
}

func TestFacadeCallSitesAndListing(t *testing.T) {
	p := load(t, figure1)
	a := p.Analyze(fsicp.Config{Method: fsicp.FlowSensitive, PropagateFloats: true, ReturnConstants: true})
	sites := a.CallSites()
	if len(sites) != 2 {
		t.Fatalf("call sites: %d", len(sites))
	}
	for _, cs := range sites {
		if !cs.Reachable {
			t.Errorf("%s->%s claimed unreachable", cs.Caller, cs.Callee)
		}
		if cs.Callee == "sub2" {
			want := []string{"0", "4", "0", "0"}
			for i, w := range want {
				if cs.Args[i] != w {
					t.Errorf("sub2 arg %d = %q, want %q", i, cs.Args[i], w)
				}
			}
		}
	}
	listing := a.AnnotatedListing()
	for _, want := range []string{"proc sub1(f1 int)", "# entry constants: f1 = 0", "f2 = 0, f3 = 4, f4 = 0, f5 = 0"} {
		if !strings.Contains(listing, want) {
			t.Errorf("listing missing %q:\n%s", want, listing)
		}
	}
}

// TestFacadeDeadSitesAndZeroArgCalls pins CallSites and
// AnnotatedListing on the awkward cases: calls that pass no arguments
// (so there are no ⊤ argument values to reveal deadness) sitting in a
// branch the analysis folds away, and a procedure reachable in the
// call graph only through that dead code.
func TestFacadeDeadSitesAndZeroArgCalls(t *testing.T) {
	p := load(t, `program p
global g int = 1
proc main() {
  use g
  call live()
  if g > 1 {
    call dead()
  }
}
proc live() {
  use g
  print g
}
proc dead() {
  use g
  call deadleaf()
}
proc deadleaf() {
  print 0
}`)
	a := p.Analyze(fsicp.Config{Method: fsicp.FlowSensitive, PropagateFloats: true})
	want := map[string]bool{ // caller->callee : reachable
		"main->live":     true,
		"main->dead":     false,
		"dead->deadleaf": false,
	}
	sites := a.CallSites()
	if len(sites) != len(want) {
		t.Fatalf("call sites: %d, want %d", len(sites), len(want))
	}
	for _, cs := range sites {
		key := cs.Caller + "->" + cs.Callee
		r, ok := want[key]
		if !ok {
			t.Errorf("unexpected call site %s", key)
			continue
		}
		if cs.Reachable != r {
			t.Errorf("%s: Reachable = %v, want %v", key, cs.Reachable, r)
		}
		if len(cs.Args) != 0 {
			t.Errorf("%s: zero-arg call reported %d args", key, len(cs.Args))
		}
	}
	listing := a.AnnotatedListing()
	for _, wantLine := range []string{
		"proc live()",
		"proc dead()\n  # unreachable under this solution",
		"proc deadleaf()\n  # unreachable under this solution",
	} {
		if !strings.Contains(listing, wantLine) {
			t.Errorf("listing missing %q:\n%s", wantLine, listing)
		}
	}
	// live's entry must still carry the global constant even though it
	// takes no formals.
	if !strings.Contains(listing, "g = 1") {
		t.Errorf("listing missing live's entry constant g = 1:\n%s", listing)
	}
}

func TestFacadeUse(t *testing.T) {
	p := load(t, `program p
global g int = 1
global h int = 2
proc main() {
  use g, h
  g = 5
  call f(3)
  print g
}
proc f(a int) {
  use h
  print h, a
}`)
	use := p.Use()
	mainUse := strings.Join(use["main"], ",")
	// main writes g before reading it, so only h (via f) is
	// upward-exposed.
	if strings.Contains(mainUse, "g") || !strings.Contains(mainUse, "h") {
		t.Errorf("USE(main) = %q", mainUse)
	}
	fUse := strings.Join(use["f"], ",")
	if !strings.Contains(fUse, "a") || !strings.Contains(fUse, "h") {
		t.Errorf("USE(f) = %q", fUse)
	}
}

// TestScalability: a large generated program (hundreds of procedures)
// flows through the complete pipeline in bounded time.
func TestScalability(t *testing.T) {
	var b strings.Builder
	b.WriteString("program big\n\nglobal acc int\n\nproc main() {\n  use acc\n  acc = 1\n")
	const n = 400
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "  call p%d(%d, acc)\n", i, i%17)
	}
	b.WriteString("}\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "proc p%d(a int, b int) {\n  var t int\n  t = a * 2 + b\n", i)
		if i+1 < n {
			fmt.Fprintf(&b, "  if t > 0 {\n    call p%d(t, b)\n  }\n", i+1)
		}
		b.WriteString("  print t\n}\n")
	}
	p := load(t, b.String())
	for _, m := range []fsicp.Method{fsicp.FlowInsensitive, fsicp.FlowSensitive, fsicp.FlowSensitiveIterative} {
		a := p.Analyze(fsicp.Config{Method: m, PropagateFloats: true})
		if a.EntryMetrics().Procs != n+1 {
			t.Fatalf("%v: procs = %d", m, a.EntryMetrics().Procs)
		}
	}
	r := p.Run(nil)
	if r.Err != nil {
		t.Fatalf("run: %v", r.Err)
	}
}

func TestFacadeRemoveDeadProcedures(t *testing.T) {
	p := load(t, `program p
proc main() {
  if 1 > 2 {
    call never()
  }
  print "done"
}
proc never() { print "boo" }`)
	a := p.Analyze(fsicp.Config{Method: fsicp.FlowSensitive, PropagateFloats: true})
	a.ApplyTransform()
	removed := a.RemoveDeadProcedures()
	if len(removed) != 1 || removed[0] != "never" {
		t.Errorf("removed: %v", removed)
	}
	if r := p.Run(nil); r.Err != nil || r.Output != "done\n" {
		t.Errorf("run after removal: %q err %v", r.Output, r.Err)
	}
}
