package transform_test

import (
	"fmt"
	"strings"
	"testing"

	"fsicp/internal/icp"
	"fsicp/internal/interp"
	"fsicp/internal/jumpfunc"
	"fsicp/internal/lattice"
	"fsicp/internal/progen"
	"fsicp/internal/sem"
	"fsicp/internal/testutil"
	"fsicp/internal/transform"
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

func prep(t *testing.T, src string) *icp.Context {
	t.Helper()
	return icp.Prepare(testutil.MustBuild(t, src))
}

func envOf(r *icp.Result) transform.EnvFn {
	return func(p *sem.Proc) lattice.Env[*sem.Var] { return r.Entry[p] }
}

// fold runs the fold pass alone, the paper's transformation step.
func fold(t *testing.T, ctx *icp.Context, r *icp.Result) transform.Report {
	t.Helper()
	rep, err := transform.Optimize(ctx, envOf(r), transform.Options{Passes: []string{transform.PassFold}, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestSubstitutionOrderingOnFigure1(t *testing.T) {
	ctx := prep(t, figure1)
	fi := icp.Analyze(ctx, icp.Options{Method: icp.FlowInsensitive, PropagateFloats: true})
	fs := icp.Analyze(ctx, icp.Options{Method: icp.FlowSensitive, PropagateFloats: true})
	poly := jumpfunc.Analyze(ctx, jumpfunc.Polynomial)

	cFI := transform.CountSubstitutions(ctx, envOf(fi))
	cFS := transform.CountSubstitutions(ctx, envOf(fs))
	cPoly := transform.CountSubstitutions(ctx, func(p *sem.Proc) lattice.Env[*sem.Var] {
		return poly.EntryEnv(p)
	})

	// Table 5 shape: FS >= POLYNOMIAL >= FI on this example.
	if !(cFS.Substitutions >= cPoly.Substitutions && cPoly.Substitutions >= cFI.Substitutions) {
		t.Errorf("ordering violated: FI=%d POLY=%d FS=%d",
			cFI.Substitutions, cPoly.Substitutions, cFS.Substitutions)
	}
	if cFS.Substitutions <= cFI.Substitutions {
		t.Errorf("FS must strictly beat FI on figure 1: FI=%d FS=%d",
			cFI.Substitutions, cFS.Substitutions)
	}
	// FS discards the dead then-branch of sub1.
	if cFS.FoldedBranches == 0 {
		t.Error("FS must fold the branch on f1 != 0")
	}
}

func TestZeroEnvStillCountsIntraConstants(t *testing.T) {
	ctx := prep(t, `program p
proc main() {
  var x int = 3
  print x + 1
}`)
	c := transform.CountSubstitutions(ctx, func(p *sem.Proc) lattice.Env[*sem.Var] { return nil })
	// x's use in the addition and the print use of the temp... only
	// source variables count: "x" used once in x+1.
	if c.Substitutions != 1 {
		t.Errorf("substitutions = %d, want 1", c.Substitutions)
	}
}

func TestApplyPreservesSemantics(t *testing.T) {
	srcs := []string{figure1}
	for seed := int64(500); seed < 520; seed++ {
		srcs = append(srcs, progen.Generate(progen.Config{Seed: seed, AllowRecursion: seed%2 == 0, AllowFloats: true}))
	}
	for i, src := range srcs {
		// Reference run on an untouched build.
		ref := interp.Run(testutil.MustBuild(t, src), interp.Options{})
		if ref.Err != nil {
			t.Fatalf("case %d: reference run failed: %v", i, ref.Err)
		}

		for _, m := range []icp.Method{icp.FlowInsensitive, icp.FlowSensitive} {
			ctx := prep(t, src)
			r := icp.Analyze(ctx, icp.Options{Method: m, PropagateFloats: true})
			fold(t, ctx, r)
			got := interp.Run(ctx.Prog, interp.Options{})
			if got.Err != nil {
				t.Fatalf("case %d method %v: transformed run failed: %v\n%s", i, m, got.Err, src)
			}
			if got.Output != ref.Output {
				t.Errorf("case %d method %v: output changed\n-- want --\n%s-- got --\n%s\nprogram:\n%s",
					i, m, ref.Output, got.Output, src)
			}
		}
	}
}

func TestApplyFoldsFigure1Sum(t *testing.T) {
	ctx := prep(t, figure1)
	r := icp.Analyze(ctx, icp.Options{Method: icp.FlowSensitive, PropagateFloats: true})
	rep := fold(t, ctx, r)
	if rep.EntryAssignments == 0 || rep.FoldedInstrs == 0 || rep.FoldedBranches == 0 {
		t.Errorf("report too weak: %+v", rep)
	}
	// sub2's sum 0+4+0+0 must now be a constant instruction.
	sub2 := ctx.Prog.Sem.ProcByName["sub2"]
	dump := ctx.Prog.FuncOf[sub2].Dump()
	if !strings.Contains(dump, "sub2.s = const 4") {
		t.Errorf("expected folded 's = const 4' in sub2:\n%s", dump)
	}
	// The dead branch of sub1 (y = 1) is gone.
	sub1 := ctx.Prog.Sem.ProcByName["sub1"]
	if strings.Contains(ctx.Prog.FuncOf[sub1].Dump(), "const 1") {
		t.Errorf("dead branch survived:\n%s", ctx.Prog.FuncOf[sub1].Dump())
	}
}

func TestRemoveDeadProcedures(t *testing.T) {
	src := `program p
proc main() {
  call live(1)
  if false {
    call deadguard(2)
  }
}
proc live(a int) { print a }
proc deadguard(b int) { call deeper(b) }
proc deeper(c int) { print c }
proc unreachable() { call deeper(9) }`
	ctx := prep(t, src)
	r := icp.Analyze(ctx, icp.Options{Method: icp.FlowSensitive, PropagateFloats: true})
	fold(t, ctx, r) // prunes the if-false branch and its call
	removed := transform.RemoveDeadProcedures(ctx, r)
	names := strings.Join(removed, ",")
	for _, want := range []string{"deadguard", "deeper", "unreachable"} {
		if !strings.Contains(names, want) {
			t.Errorf("%s not removed (removed: %s)", want, names)
		}
	}
	if strings.Contains(names, "live") || strings.Contains(names, "main") {
		t.Errorf("live code removed: %s", names)
	}
	// Still executable with identical output.
	got := interp.Run(ctx.Prog, interp.Options{})
	if got.Err != nil || got.Output != "1\n" {
		t.Errorf("output %q err %v", got.Output, got.Err)
	}
	if len(ctx.Prog.Funcs) != 2 {
		t.Errorf("funcs remaining: %d", len(ctx.Prog.Funcs))
	}
}

// TestRemoveDeadProceduresKeepsModRef checks that a kept procedure
// whose index moves when an earlier one is removed keeps its MOD/REF
// rows, which the context retains and later analyses read by index.
func TestRemoveDeadProceduresKeepsModRef(t *testing.T) {
	src := `program p
global g int = 1
proc main() {
  use g
  if false {
    call dead(1)
  }
  call keep(g)
}
proc dead(x int) { print x }
proc keep(y int) {
  use g
  y = g + 1
}`
	ctx := prep(t, src)
	keep := ctx.Prog.Sem.ProcByName["keep"]
	rows := func() string {
		return fmt.Sprint(ctx.MR.Mod(keep).Vars(), ctx.MR.Ref(keep).Vars(), ctx.MR.RefGlobals(keep))
	}
	before := rows()
	r := icp.Analyze(ctx, icp.Options{Method: icp.FlowSensitive, PropagateFloats: true})
	fold(t, ctx, r)
	if removed := transform.RemoveDeadProcedures(ctx, r); len(removed) != 1 || removed[0] != "dead" {
		t.Fatalf("removed %v, want [dead]", removed)
	}
	if keep.Index != 1 {
		t.Fatalf("keep has index %d after the removal, want 1", keep.Index)
	}
	if after := rows(); after != before || ctx.MR.Mod(keep).Len() != 2 {
		t.Errorf("keep's MOD, REF and REF globals changed across the removal: %s, then %s", before, after)
	}
}

func TestRemoveDeadKeepsIndirectlyLive(t *testing.T) {
	// A call site the analysis could not prune keeps its callee alive.
	src := `program p
proc main() {
  var x int
  read x
  if x > 0 {
    call maybe(x)
  }
}
proc maybe(a int) { print a }`
	ctx := prep(t, src)
	r := icp.Analyze(ctx, icp.Options{Method: icp.FlowSensitive, PropagateFloats: true})
	fold(t, ctx, r)
	removed := transform.RemoveDeadProcedures(ctx, r)
	if len(removed) != 0 {
		t.Errorf("removed: %v", removed)
	}
}
