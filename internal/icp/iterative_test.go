package icp_test

import (
	"testing"

	"fsicp/internal/icp"
	"fsicp/internal/interp"
	"fsicp/internal/irbuild"
	"fsicp/internal/lattice"
	"fsicp/internal/parser"
	"fsicp/internal/progen"
	"fsicp/internal/sem"
	"fsicp/internal/soundness"
	"fsicp/internal/source"
)

// sameSolution compares two results' entry constants on every reachable
// procedure.
func sameSolution(a, b *icp.Result) (string, bool) {
	ctx := a.Ctx
	for _, p := range ctx.CG.Reachable {
		vars := append([]*sem.Var(nil), p.Params...)
		vars = append(vars, ctx.Prog.Sem.Globals...)
		for _, v := range vars {
			ea := a.Entry[p].Get(v)
			eb := b.Entry[p].Get(v)
			// Dead procedures have empty envs; compare as ⊥.
			if ea.IsTop() {
				ea = lattice.BottomElem()
			}
			if eb.IsTop() {
				eb = lattice.BottomElem()
			}
			if !ea.Eq(eb) {
				return p.Name + "." + v.Name, false
			}
		}
	}
	return "", true
}

// TestOnePassEqualsIterativeOnAcyclic is the paper's §3.2 equivalence
// claim, checked exactly: with no back edges, the single-pass method
// computes the iterative fixpoint.
func TestOnePassEqualsIterativeOnAcyclic(t *testing.T) {
	for seed := int64(1300); seed < 1340; seed++ {
		src := progen.Generate(progen.Config{Seed: seed, AllowFloats: true}) // no recursion
		ctx := compileSrc(t, src)
		if ctx.CG.HasCycles() {
			t.Fatalf("seed %d: generator produced a cycle without recursion", seed)
		}
		onepass := icp.Analyze(ctx, icp.Options{Method: icp.FlowSensitive, PropagateFloats: true})
		iter := icp.Analyze(ctx, icp.Options{Method: icp.FlowSensitiveIterative, PropagateFloats: true})
		if where, ok := sameSolution(onepass, iter); !ok {
			t.Errorf("seed %d: solutions differ at %s\nprogram:\n%s", seed, where, src)
		}
		if iter.SCCRuns < len(ctx.CG.Reachable) {
			t.Errorf("seed %d: iterative ran %d SCCs for %d procs", seed, iter.SCCRuns, len(ctx.CG.Reachable))
		}
	}
}

func compileSrc(t *testing.T, src string) *icp.Context {
	t.Helper()
	f := source.NewFile("gen.mf", src)
	astProg, err := parser.ParseFile(f)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := sem.Check(astProg, f)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := irbuild.Build(sp)
	if err != nil {
		t.Fatal(err)
	}
	return icp.Prepare(prog)
}

// TestIterativeAtLeastAsPreciseOnRecursive: with back edges the
// one-pass method's FI fallback can only lose precision relative to
// the full fixpoint, never gain unsound precision.
func TestIterativeAtLeastAsPreciseOnRecursive(t *testing.T) {
	for seed := int64(1400); seed < 1430; seed++ {
		src := progen.Generate(progen.Config{Seed: seed, AllowRecursion: true, AllowFloats: true})
		ctx := compileSrc(t, src)
		onepass := icp.Analyze(ctx, icp.Options{Method: icp.FlowSensitive, PropagateFloats: true})
		iter := icp.Analyze(ctx, icp.Options{Method: icp.FlowSensitiveIterative, PropagateFloats: true})
		for i, p := range ctx.CG.Reachable {
			n1 := len(onepass.ConstantFormals(p))
			n2 := len(iter.ConstantFormals(p))
			if onepass.Dead(i) || iter.Dead(i) {
				continue
			}
			if n2 < n1 {
				t.Errorf("seed %d: iterative lost constants at %s (%d < %d)\n%s",
					seed, p.Name, n2, n1, src)
			}
		}
	}
}

// TestIterativeSoundness: the fixpoint's claims hold at runtime.
func TestIterativeSoundness(t *testing.T) {
	for seed := int64(1500); seed < 1530; seed++ {
		src := progen.Generate(progen.Config{Seed: seed, AllowRecursion: seed%2 == 0, AllowFloats: true})
		ctx := compileSrc(t, src)
		run := interp.Run(ctx.Prog, interp.Options{TraceGlobalsAtCalls: true})
		if run.Err != nil {
			t.Fatalf("seed %d: %v", seed, run.Err)
		}
		r := icp.Analyze(ctx, icp.Options{Method: icp.FlowSensitiveIterative, PropagateFloats: true})
		if bad := soundness.CheckICP(r, run.Trace); len(bad) > 0 {
			t.Errorf("seed %d: %s\n%s", seed, bad[0], src)
		}
	}
}

// TestIterativeRecursionPrecision: on the recursive chain the iterative
// method recovers the pass-through constant through the cycle exactly
// like the one-pass method (which uses the FI fallback there), and both
// agree with the runtime.
func TestIterativeRecursion(t *testing.T) {
	src := `program p
proc main() { call r(7, 0) }
proc r(k int, n int) {
  if n < 3 {
    call r(k, n + 1)
  }
  print k, n
}`
	ctx := compileSrc(t, src)
	iter := icp.Analyze(ctx, icp.Options{Method: icp.FlowSensitiveIterative, PropagateFloats: true})
	rp := ctx.Prog.Sem.ProcByName["r"]
	if v, ok := iter.EntryConstant(rp, rp.Params[0]); !ok || v.I != 7 {
		t.Errorf("iterative: k = %v,%v, want 7", v, ok)
	}
	if _, ok := iter.EntryConstant(rp, rp.Params[1]); ok {
		t.Error("iterative: n must not be constant")
	}
	if iter.Iterations < 2 {
		t.Errorf("recursive program should need >1 round, got %d", iter.Iterations)
	}
	if iter.SCCRuns <= len(ctx.CG.Reachable) {
		t.Errorf("recursive program should re-analyse procedures: %d runs", iter.SCCRuns)
	}
}

// TestIterativeConditionalThroughCycle: a case where the iterative
// method is strictly more precise than the one-pass method — the
// constant flows only around the cycle, so the FI fallback loses it.
func TestIterativeConditionalThroughCycle(t *testing.T) {
	src := `program p
proc main() { call a(4, 3) }
proc a(v int, n int) {
  var t int
  t = v
  if n > 0 {
    call b(t, n - 1)
  }
  print v
}
proc b(w int, m int) {
  call a(w, m)
  print w
}`
	ctx := compileSrc(t, src)
	onepass := icp.Analyze(ctx, icp.Options{Method: icp.FlowSensitive, PropagateFloats: true})
	iter := icp.Analyze(ctx, icp.Options{Method: icp.FlowSensitiveIterative, PropagateFloats: true})
	b := ctx.Prog.Sem.ProcByName["b"]
	// w = t = v = 4 through the whole cycle; the one-pass FI fallback
	// for the back edge b->a cannot see t's value (t is a local).
	if v, ok := iter.EntryConstant(b, b.Params[0]); !ok || v.I != 4 {
		t.Errorf("iterative: w = %v,%v, want 4", v, ok)
	}
	a := ctx.Prog.Sem.ProcByName["a"]
	if v, ok := iter.EntryConstant(a, a.Params[0]); !ok || v.I != 4 {
		t.Errorf("iterative: v = %v,%v, want 4", v, ok)
	}
	// The one-pass method loses v on the back edge (documenting the
	// trade-off, not asserting forever-fixed behaviour).
	if v, ok := onepass.EntryConstant(a, a.Params[0]); ok {
		t.Logf("one-pass also found v = %v (FI fallback was sufficient here)", v)
	}
}
