package transform_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"fsicp/internal/driver"
	"fsicp/internal/icp"
	"fsicp/internal/interp"
	"fsicp/internal/ir"
	"fsicp/internal/irbuild"
	"fsicp/internal/parser"
	"fsicp/internal/progen"
	"fsicp/internal/sem"
	"fsicp/internal/source"
	"fsicp/internal/ssa"
	"fsicp/internal/transform"
)

// passSubsets enumerates every non-empty subset of the pipeline's
// passes, in canonical pass order within each subset.
func passSubsets() [][]string {
	all := transform.AllPasses()
	var subsets [][]string
	for mask := 1; mask < 1<<len(all); mask++ {
		var sel []string
		for i, p := range all {
			if mask&(1<<i) != 0 {
				sel = append(sel, p)
			}
		}
		subsets = append(subsets, sel)
	}
	return subsets
}

// differentialSources is the corpus for the interpreter-differential
// property: figure 1 plus generated programs (half recursive).
func differentialSources() []string {
	srcs := []string{figure1}
	for seed := int64(500); seed < 510; seed++ {
		srcs = append(srcs, generated(seed))
	}
	return srcs
}

// generated is the differential corpus's program for a progen seed:
// even seeds allow recursion.
func generated(seed int64) string {
	return progen.Generate(progen.Config{Seed: seed, AllowRecursion: seed%2 == 0, AllowFloats: true})
}

// FuzzOptimize runs the passes the low five bits of mask select, in
// AllPasses order (none selected runs them all), under the
// flow-sensitive solution, over the generated program of seed, or over
// src when it is not empty (how figure 1 enters the corpus). The
// optimized program must print what the original prints, and its dump
// and report must be the same at workers 1 and 4.
func FuzzOptimize(f *testing.F) {
	f.Add(figure1, int64(0), uint8(31))
	for seed := int64(500); seed < 510; seed++ { // differentialSources' seeds
		f.Add("", seed, uint8(31))
	}
	f.Fuzz(func(t *testing.T, src string, seed int64, mask uint8) {
		if src == "" {
			src = generated(seed)
		}
		orig, ok := tryPrep(src)
		if !ok {
			t.Skip("source does not compile")
		}
		ref := interp.Run(orig.Prog, interp.Options{})
		if ref.Err != nil {
			t.Skip("the original program does not run to completion")
		}
		var passes []string
		for i, p := range transform.AllPasses() {
			if mask&(1<<i) != 0 {
				passes = append(passes, p)
			}
		}
		var dump1 string
		var rep1 transform.Report
		for _, w := range []int{1, 4} {
			ctx, _ := tryPrep(src)
			r := icp.Analyze(ctx, icp.Options{Method: icp.FlowSensitive, PropagateFloats: true})
			rep, err := transform.Optimize(ctx, envOf(r), transform.Options{Passes: passes, Workers: w})
			if err != nil {
				t.Fatalf("passes %v workers=%d: %v", passes, w, err)
			}
			if w == 1 {
				got := interp.Run(ctx.Prog, interp.Options{})
				if got.Err != nil || got.Output != ref.Output {
					t.Fatalf("passes %v: optimized program printed %q (err %v), the original %q\nprogram:\n%s",
						passes, got.Output, got.Err, ref.Output, src)
				}
				dump1, rep1 = ctx.Prog.Dump(), rep
				continue
			}
			if ctx.Prog.Dump() != dump1 {
				t.Fatalf("passes %v: program dump at workers=%d differs from workers=1", passes, w)
			}
			if !reflect.DeepEqual(rep, rep1) {
				t.Fatalf("passes %v: report at workers=%d %+v differs from workers=1 %+v", passes, w, rep, rep1)
			}
		}
	})
}

// tryPrep compiles and prepares src, reporting false on any front-end
// error.
func tryPrep(src string) (*icp.Context, bool) {
	f := source.NewFile("fuzz.mf", src)
	astProg, err := parser.ParseFile(f)
	if err != nil {
		return nil, false
	}
	semProg, err := sem.Check(astProg, f)
	if err != nil {
		return nil, false
	}
	prog, err := irbuild.Build(semProg)
	if err != nil {
		return nil, false
	}
	return icp.Prepare(prog), true
}

// TestOptimizePreservesSemanticsAllSubsets runs every non-empty pass
// subset over the differential corpus under the flow-sensitive
// solution: the optimized program's interpreter output must be
// byte-identical to the untouched program's.
func TestOptimizePreservesSemanticsAllSubsets(t *testing.T) {
	for i, src := range differentialSources() {
		ref := interp.Run(prep(t, src).Prog, interp.Options{})
		if ref.Err != nil {
			t.Fatalf("case %d: reference run failed: %v", i, ref.Err)
		}
		for _, passes := range passSubsets() {
			ctx := prep(t, src)
			r := icp.Analyze(ctx, icp.Options{Method: icp.FlowSensitive, PropagateFloats: true})
			if _, err := transform.Optimize(ctx, envOf(r), transform.Options{Passes: passes}); err != nil {
				t.Fatalf("case %d passes %v: %v", i, passes, err)
			}
			got := interp.Run(ctx.Prog, interp.Options{})
			if got.Err != nil {
				t.Fatalf("case %d passes %v: optimized run failed: %v\n%s", i, passes, got.Err, src)
			}
			if got.Output != ref.Output {
				t.Errorf("case %d passes %v: output changed\n-- want --\n%s-- got --\n%s\nprogram:\n%s",
					i, passes, ref.Output, got.Output, src)
			}
		}
	}
}

// TestOptimizeSinglePassesFlowInsensitive repeats the differential
// property for each pass alone under the flow-insensitive solution.
func TestOptimizeSinglePassesFlowInsensitive(t *testing.T) {
	for i, src := range differentialSources() {
		ref := interp.Run(prep(t, src).Prog, interp.Options{})
		if ref.Err != nil {
			t.Fatalf("case %d: reference run failed: %v", i, ref.Err)
		}
		for _, pass := range transform.AllPasses() {
			ctx := prep(t, src)
			r := icp.Analyze(ctx, icp.Options{Method: icp.FlowInsensitive, PropagateFloats: true})
			if _, err := transform.Optimize(ctx, envOf(r), transform.Options{Passes: []string{pass}}); err != nil {
				t.Fatalf("case %d pass %s: %v", i, pass, err)
			}
			got := interp.Run(ctx.Prog, interp.Options{})
			if got.Err != nil {
				t.Fatalf("case %d pass %s: optimized run failed: %v", i, pass, got.Err)
			}
			if got.Output != ref.Output {
				t.Errorf("case %d pass %s: output changed\n-- want --\n%s-- got --\n%s",
					i, pass, ref.Output, got.Output)
			}
		}
	}
}

// TestOptimizeDeterministicAcrossWorkers checks that the sharded
// pipeline is schedule-independent: the optimized program dump and the
// per-pass report are byte-identical across worker counts.
func TestOptimizeDeterministicAcrossWorkers(t *testing.T) {
	src := progen.Generate(progen.Config{Seed: 4242, Procs: 24, Globals: 6, AllowFloats: true, AllowRecursion: true})
	type outcome struct {
		dump string
		rep  transform.Report
	}
	var base *outcome
	for _, w := range []int{1, 2, 4, 8} {
		ctx := prep(t, src)
		r := icp.Analyze(ctx, icp.Options{Method: icp.FlowSensitive, PropagateFloats: true})
		rep, err := transform.Optimize(ctx, envOf(r), transform.Options{Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		o := &outcome{dump: ctx.Prog.Dump(), rep: rep}
		if base == nil {
			base = o
			continue
		}
		if o.dump != base.dump {
			t.Errorf("workers=%d: program dump differs from workers=1", w)
		}
		if o.rep.Counts != base.rep.Counts {
			t.Errorf("workers=%d: report %+v differs from workers=1 %+v", w, o.rep.Counts, base.rep.Counts)
		}
		for i := range o.rep.Passes {
			if o.rep.Passes[i] != base.rep.Passes[i] {
				t.Errorf("workers=%d: pass report %d differs: %+v vs %+v", w, i, o.rep.Passes[i], base.rep.Passes[i])
			}
		}
	}
}

func TestCopyPropRewritesUses(t *testing.T) {
	ctx := prep(t, `program p
proc main() {
  var a int
  var b int
  var c int
  var d int
  read a
  b = a
  c = b + 1
  d = b + 2
  print c
  print d
}`)
	r := icp.Analyze(ctx, icp.Options{Method: icp.FlowSensitive, PropagateFloats: true})
	rep, err := transform.Optimize(ctx, envOf(r), transform.Options{Passes: []string{transform.PassCopyProp}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CopiesPropagated != 2 {
		t.Errorf("CopiesPropagated = %d, want 2", rep.CopiesPropagated)
	}
	dump := ctx.Prog.FuncOf[ctx.Prog.Sem.ProcByName["main"]].Dump()
	if !strings.Contains(dump, "main.c = main.a +") || !strings.Contains(dump, "main.d = main.a +") {
		t.Errorf("uses of b not rewritten to a:\n%s", dump)
	}
}

func TestCSEReplacesDuplicateExpr(t *testing.T) {
	ctx := prep(t, `program p
proc main() {
  var a int
  var c int
  var d int
  read a
  c = a + 1
  d = a + 1
  print c
  print d
}`)
	r := icp.Analyze(ctx, icp.Options{Method: icp.FlowSensitive, PropagateFloats: true})
	rep, err := transform.Optimize(ctx, envOf(r), transform.Options{Passes: []string{transform.PassCSE}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CSEReplaced != 1 {
		t.Errorf("CSEReplaced = %d, want 1", rep.CSEReplaced)
	}
	dump := ctx.Prog.FuncOf[ctx.Prog.Sem.ProcByName["main"]].Dump()
	if !strings.Contains(dump, "main.d = main.c") {
		t.Errorf("duplicate a+1 not replaced by a copy of c:\n%s", dump)
	}
}

func TestCSECommutativeOperandsShareKey(t *testing.T) {
	ctx := prep(t, `program p
proc main() {
  var a int
  var b int
  var c int
  var d int
  read a
  read b
  c = a + b
  d = b + a
  print c
  print d
}`)
	r := icp.Analyze(ctx, icp.Options{Method: icp.FlowSensitive, PropagateFloats: true})
	rep, err := transform.Optimize(ctx, envOf(r), transform.Options{Passes: []string{transform.PassCSE}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CSEReplaced != 1 {
		t.Errorf("CSEReplaced = %d, want 1 (b+a should match a+b)", rep.CSEReplaced)
	}
}

func TestLICMHoistsLoopConstant(t *testing.T) {
	const src = `program p
proc main() {
  var i int
  var c int
  var s int
  i = 0
  s = 0
  while (i < 10) {
    c = 7
    s = s + c
    i = i + 1
  }
  print s
}`
	ctx := prep(t, src)
	ref := interp.Run(prep(t, src).Prog, interp.Options{})

	r := icp.Analyze(ctx, icp.Options{Method: icp.FlowSensitive, PropagateFloats: true})
	rep, err := transform.Optimize(ctx, envOf(r), transform.Options{Passes: []string{transform.PassLICM}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.HoistedConsts == 0 {
		t.Errorf("HoistedConsts = 0, want > 0:\n%s", ctx.Prog.FuncOf[ctx.Prog.Sem.ProcByName["main"]].Dump())
	}
	got := interp.Run(ctx.Prog, interp.Options{})
	if got.Err != nil || got.Output != ref.Output {
		t.Errorf("hoisted program output %q (err %v), want %q", got.Output, got.Err, ref.Output)
	}
	// A fresh overlay over the rewritten IR must still verify —
	// catching damage (bad numbering, dangling uses) the interpreter
	// would miss.
	fn := ctx.Prog.FuncOf[ctx.Prog.Sem.ProcByName["main"]]
	if probs := ssa.Build(fn).Verify(); len(probs) != 0 {
		t.Errorf("post-LICM overlay inconsistent: %v", probs)
	}
}

// TestOptimizeReportsPerPass checks the pipeline records one PassReport
// per selected pass, in canonical order.
func TestOptimizeReportsPerPass(t *testing.T) {
	ctx := prep(t, figure1)
	r := icp.Analyze(ctx, icp.Options{Method: icp.FlowSensitive, PropagateFloats: true})
	rep, err := transform.Optimize(ctx, envOf(r), transform.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := transform.AllPasses()
	if len(rep.Passes) != len(want) {
		t.Fatalf("got %d pass reports, want %d: %+v", len(rep.Passes), len(want), rep.Passes)
	}
	for i, pr := range rep.Passes {
		if pr.Pass != want[i] {
			t.Errorf("pass %d = %s, want %s", i, pr.Pass, want[i])
		}
	}
	if rep.FoldedInstrs == 0 || rep.FoldedBranches == 0 {
		t.Errorf("figure 1 must fold instructions and a branch: %+v", rep.Counts)
	}
}

func TestOptimizeUnknownPassErrors(t *testing.T) {
	ctx := prep(t, figure1)
	r := icp.Analyze(ctx, icp.Options{Method: icp.FlowSensitive, PropagateFloats: true})
	if _, err := transform.Optimize(ctx, envOf(r), transform.Options{Passes: []string{"bogus"}}); err == nil {
		t.Fatal("expected an error for an unknown pass")
	}
}

// TestOptimizeInvalidatesFingerprints checks that rewriting drops the
// per-function key memo, so incremental reuse cannot match a
// pre-rewrite function body against its post-rewrite self.
func TestOptimizeInvalidatesFingerprints(t *testing.T) {
	ctx := prep(t, figure1)
	r := icp.Analyze(ctx, icp.Options{Method: icp.FlowSensitive, PropagateFloats: true})
	sub2 := ctx.Prog.Sem.ProcByName["sub2"]
	fn := ctx.Prog.FuncOf[sub2]
	before := fn.Dump()
	fn.SetKey(before, ir.KeyInputs{})

	if _, err := transform.Optimize(ctx, envOf(r), transform.Options{}); err != nil {
		t.Fatal(err)
	}
	if fn.Dump() == before {
		t.Fatal("the optimization did not rewrite sub2")
	}
	if key, _, ok := fn.KeyMemo(); ok {
		t.Errorf("the key memoized before a rewriting optimization survived it: %q", key)
	}
}

// TestOptimizeInvalidatesSSACache checks the pipeline drops the shared
// SSA cache: overlays built for the pre-rewrite IR must not survive.
func TestOptimizeInvalidatesSSACache(t *testing.T) {
	ctx := prep(t, figure1)
	r := icp.Analyze(ctx, icp.Options{Method: icp.FlowSensitive, PropagateFloats: true})
	// Seed the cache the way the analysis driver does.
	if len(ctx.SSACache) == 0 {
		ctx.SSACache = make([]*ssa.SSA, len(ctx.CG.Reachable))
	}
	for i, p := range ctx.CG.Reachable {
		ctx.SSACache[i] = ssa.Build(ctx.Prog.FuncOf[p])
	}
	if _, err := transform.Optimize(ctx, envOf(r), transform.Options{}); err != nil {
		t.Fatal(err)
	}
	for i, s := range ctx.SSACache {
		if s != nil {
			t.Errorf("SSACache[%d] survived Optimize", i)
		}
	}
}

func TestDSERemovesStrandedCopies(t *testing.T) {
	ctx := prep(t, `program p
proc main() {
  var a int
  var b int
  var c int
  read a
  b = a
  c = b + 1
  print c
}`)
	r := icp.Analyze(ctx, icp.Options{Method: icp.FlowSensitive, PropagateFloats: true})
	rep, err := transform.Optimize(ctx, envOf(r),
		transform.Options{Passes: []string{transform.PassCopyProp, transform.PassDSE}})
	if err != nil {
		t.Fatal(err)
	}
	// Copy propagation redirects c's operand to a, stranding "b = a";
	// DSE must then delete it.
	if rep.CopiesPropagated != 1 {
		t.Fatalf("CopiesPropagated = %d, want 1", rep.CopiesPropagated)
	}
	if rep.DeadStores != 1 {
		t.Errorf("DeadStores = %d, want 1", rep.DeadStores)
	}
	dump := ctx.Prog.FuncOf[ctx.Prog.Sem.ProcByName["main"]].Dump()
	if strings.Contains(dump, "main.b =") {
		t.Errorf("stranded copy to b not removed:\n%s", dump)
	}
	out := interp.Run(ctx.Prog, interp.Options{})
	if out.Err != nil {
		t.Fatalf("optimized program failed: %v", out.Err)
	}
}

func TestDSEChainsDieAcrossRounds(t *testing.T) {
	// d feeds only e, e feeds nothing: deleting e strands d, which the
	// worklist then deletes too.
	ctx := prep(t, `program p
proc main() {
  var a int
  var d int
  var e int
  read a
  d = a + 1
  e = d + 2
  print a
}`)
	r := icp.Analyze(ctx, icp.Options{Method: icp.FlowSensitive, PropagateFloats: true})
	rep, err := transform.Optimize(ctx, envOf(r),
		transform.Options{Passes: []string{transform.PassDSE}})
	if err != nil {
		t.Fatal(err)
	}
	// Lowering may introduce temporaries, so assert on the dump rather
	// than an exact count: both chain links (and their temps) must go.
	if rep.DeadStores < 2 {
		t.Errorf("DeadStores = %d, want >= 2", rep.DeadStores)
	}
	dump := ctx.Prog.FuncOf[ctx.Prog.Sem.ProcByName["main"]].Dump()
	if strings.Contains(dump, "main.d =") || strings.Contains(dump, "main.e =") {
		t.Errorf("dead chain not fully removed:\n%s", dump)
	}
}

// TestOptimizeRebuildsOnlyChangedCFGs checks that the passes edit the
// overlays the analysis built in place: each pass row's notes end in
// the number of overlays it built, which is zero unless fold changed a
// function's CFG, and then one, in the next pass that reads it.
func TestOptimizeRebuildsOnlyChangedCFGs(t *testing.T) {
	const body = `program p
proc main() {
  call f(3)
}
proc f(a int) {
  var x int
  var d int
  var e int
  read x
  d = x + a
  e = d + 2
  print a
%s}`
	for _, tc := range []struct {
		name, branch string
		copyprop     string
	}{
		{"no branch", "", "ssa=0"},
		{"one branch", "  if a == 3 {\n    print 1\n  } else {\n    print 2\n  }\n", "ssa=1"},
	} {
		ctx := prep(t, fmt.Sprintf(body, tc.branch))
		r := icp.Analyze(ctx, icp.Options{Method: icp.FlowSensitive, PropagateFloats: true})
		tr := driver.NewTrace()
		rep, err := transform.Optimize(ctx, envOf(r), transform.Options{Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		// The graft of a = 3 and the two-link chain e, d are edits in
		// place; only the folded branch changes a CFG.
		if rep.EntryAssignments == 0 || rep.DeadStores < 2 {
			t.Fatalf("%s: want an entry graft and a dead chain: %+v", tc.name, rep.Counts)
		}
		if folded := tc.branch != ""; (rep.FoldedBranches == 1) != folded {
			t.Fatalf("%s: %d branches folded", tc.name, rep.FoldedBranches)
		}
		rows := 0
		for _, ps := range tr.Passes() {
			want := "ssa=0"
			switch ps.Name {
			case "opt-copyprop":
				want = tc.copyprop
			case "opt-fold", "opt-dse", "opt-cse", "opt-licm":
			default:
				continue
			}
			rows++
			if !strings.HasSuffix(ps.Notes, " "+want) {
				t.Errorf("%s: %s notes %q, want them to end in %s", tc.name, ps.Name, ps.Notes, want)
			}
		}
		if rows != len(transform.AllPasses()) {
			t.Errorf("%s: %d pass rows, want %d", tc.name, rows, len(transform.AllPasses()))
		}
	}
}

func TestDSEKeepsObservableAndTrappingStores(t *testing.T) {
	// g is a global (observable at exit), q is a division (may trap),
	// r feeds the print: none may be removed.
	ctx := prep(t, `program p
global g int
proc main() {
  use g
  var a int
  var q int
  var r int
  read a
  g = a + 1
  q = 10 / a
  r = a + 2
  print r
}`)
	ic := icp.Analyze(ctx, icp.Options{Method: icp.FlowSensitive, PropagateFloats: true})
	rep, err := transform.Optimize(ctx, envOf(ic),
		transform.Options{Passes: []string{transform.PassDSE}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DeadStores != 0 {
		t.Errorf("DeadStores = %d, want 0", rep.DeadStores)
	}
}
