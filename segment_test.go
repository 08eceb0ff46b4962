// The sparse global domain: every procedure tracks exactly the globals
// it can reference or modify, and the analyses read the rest from the
// entry environment.
package fsicp_test

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	fsicp "fsicp"
	"fsicp/internal/icp"
	"fsicp/internal/sem"
)

// checkGlobalSegments asserts, for every reachable function of ctx,
// that the global segment is (REF*(p) ∪ MOD*(p) ∪ globals p passes by
// reference) ∩ globals in declaration order, that it sits contiguously
// in AllVars, that every variable an instruction, terminator, MayDef
// or clobber names is tracked, and that another procedure's formals and
// locals are not. With exact false — after a
// destructive optimization, which deletes code (by-reference calls
// included) without recomputing MOD/REF — the segment need only
// contain REF*(p) ∪ MOD*(p), in declaration order.
func checkGlobalSegments(t *testing.T, stage string, ctx *icp.Context, exact bool) {
	t.Helper()
	for i, p := range ctx.CG.Reachable {
		fn := ctx.Prog.FuncOf[p]
		// A variable's recorded position is valid in its owner's
		// function only.
		if q := ctx.CG.Reachable[(i+1)%len(ctx.CG.Reachable)]; q != p {
			for _, vs := range [][]*sem.Var{q.Params, q.Locals} {
				for _, v := range vs {
					if fn.VarOrd(v) != -1 {
						t.Fatalf("%s: %s tracks %s, a variable of %s", stage, p.Name, v.Name, q.Name)
					}
				}
			}
		}
		byRef := make(map[*sem.Var]bool)
		for _, call := range fn.Calls {
			for _, a := range call.ByRef {
				if a != nil && a.IsGlobal() {
					byRef[a] = true
				}
			}
		}
		var want, got []string
		for _, g := range ctx.Prog.Sem.Globals {
			refmod := ctx.MR.Ref[p].Has(g) || ctx.MR.Mod[p].Has(g)
			if refmod || (exact && byRef[g]) || (!exact && fn.VarOrd(g) >= 0) {
				want = append(want, g.Name)
			}
			if refmod && fn.VarOrd(g) < 0 {
				t.Fatalf("%s: %s does not track %s, which it may reference or modify", stage, p.Name, g.Name)
			}
		}
		for _, g := range fn.Globals() {
			got = append(got, g.Name)
		}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Fatalf("%s: %s tracks globals %v, want %v", stage, p.Name, got, want)
		}
		lo, hi := fn.GlobalOffset(), fn.GlobalOffset()+len(fn.Globals())
		for i, v := range fn.AllVars {
			if fn.VarOrd(v) != i || v.IsGlobal() != (i >= lo && i < hi) {
				t.Fatalf("%s: %s: AllVars[%d] = %s is out of place", stage, p.Name, i, v.Name)
			}
		}
		tracked := func(vs []*sem.Var, what string) {
			for _, v := range vs {
				if fn.VarOrd(v) < 0 {
					t.Fatalf("%s: %s names untracked %s in %s", stage, p.Name, v.Name, what)
				}
			}
		}
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				tracked(in.Defs(), in.String()) // includes call MayDef and clobbered vars
				tracked(in.Uses(), in.String())
			}
			tracked(b.Term.Uses(), b.Term.String())
		}
	}
}

// segmentPrograms returns every testdata program plus, outside -short,
// the 2k-procedure corpus, as loaders that build a fresh Program.
func segmentPrograms(t *testing.T) map[string]func() *fsicp.Program {
	files, err := filepath.Glob(filepath.Join("testdata", "programs", "*.mf"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus programs found: %v", err)
	}
	out := make(map[string]func() *fsicp.Program)
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(file)] = func() *fsicp.Program {
			p, err := fsicp.Load(file, string(src))
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
	}
	if !testing.Short() {
		files, _ := corpus2k()
		out["corpus2k"] = func() *fsicp.Program {
			p, err := fsicp.LoadFiles(asSourceFiles(files), fsicp.LoadOptions{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
	}
	return out
}

// TestGlobalSegmentInvariant checks the segment after load and again
// after each IR-rewriting facade operation: Optimize (which keeps the
// load-time MOD/REF), Inline and Clone (which rebuild it).
func TestGlobalSegmentInvariant(t *testing.T) {
	fs := fsicp.Config{Method: fsicp.FlowSensitive, PropagateFloats: true, ReturnConstants: true}
	for name, load := range segmentPrograms(t) {
		t.Run(name, func(t *testing.T) {
			p := load()
			checkGlobalSegments(t, "load", fsicp.ContextOf(p), true)

			if _, err := p.Analyze(fs).Optimize(fsicp.AllOptimizations()); err != nil {
				t.Fatal(err)
			}
			checkGlobalSegments(t, "optimize", fsicp.ContextOf(p), false)

			p = load()
			p.Inline(2)
			checkGlobalSegments(t, "inline", fsicp.ContextOf(p), true)
			p.Analyze(fs) // SSA builds over the rebuilt segments

			p = load()
			p.Analyze(fs).Clone(4)
			checkGlobalSegments(t, "clone", fsicp.ContextOf(p), true)
			p.Analyze(fs)
		})
	}
}

// TestUntrackedGlobalsExitWithEntryValue: a global outside a
// procedure's segment is untouched by it and its callees, so the
// returns pass reports its entry constant as its exit constant,
// exactly as the dense global domain (every function tracking every
// global) does — for main, whose entry binds every block-data global,
// and for procedures degraded to the flow-insensitive solution, whose
// entry binds every program-wide constant global regardless of REF*.
// A procedure that never returns has no exit values at all.
func TestUntrackedGlobalsExitWithEntryValue(t *testing.T) {
	src := `program p
global k int = 7
global g int = 1
proc main() {
  use g
  call f(g)
  call f(2)
}
proc f(x int) {
  print x
  call h()
  if x > 5 {
    call spin()
  }
}
proc h() { print 1 }
proc spin() {
  while true {
  }
}`
	sparse, dense := load(t, src), load(t, src)
	fsicp.TrackAllGlobals(dense)
	faults := func(pass, proc string) {
		if pass == "FS" && (proc == "f" || proc == "spin") {
			panic("injected fault")
		}
	}
	for _, tc := range []struct {
		name   string
		faults func(pass, proc string)
	}{{"clean", nil}, {"degraded", faults}} {
		t.Run(tc.name, func(t *testing.T) {
			opts := icp.Options{Method: icp.FlowSensitive, PropagateFloats: true, ReturnConstants: true, Faults: tc.faults}
			ctx := fsicp.ContextOf(sparse)
			res := icp.Analyze(ctx, opts)
			if got, want := exitFingerprint(res), exitFingerprint(icp.Analyze(fsicp.ContextOf(dense), opts)); got != want {
				t.Errorf("exit environments\n%s\ndiffer from the dense global domain's\n%s", got, want)
			}
			// The cases above must actually arise: k is untracked
			// everywhere, yet bound at the entry of main and of the
			// degraded procedures.
			k := ctx.Prog.Sem.Globals[0]
			want := map[string]string{"main": "7"}
			if tc.faults != nil {
				want = map[string]string{"main": "7", "f": "7", "spin": "none"}
			}
			for name, exit := range want {
				q := ctx.Prog.Sem.ProcByName[name]
				e, ok := res.ExitEnv[q][k]
				got := "none"
				if ok {
					got = e.String()
				}
				if ctx.Prog.FuncOf[q].VarOrd(k) >= 0 || !res.Entry[q].Get(k).IsConst() || got != exit {
					t.Errorf("%s: k tracked=%v entry=%v exit=%s, want untracked, constant entry, exit %s",
						name, ctx.Prog.FuncOf[q].VarOrd(k) >= 0, res.Entry[q].Get(k), got, exit)
				}
			}
		})
	}
}

// exitFingerprint renders the returns extension's exit environments by
// name, so analyses of two loads of one program compare.
func exitFingerprint(res *icp.Result) string {
	var lines []string
	for p, env := range res.ExitEnv {
		for v, e := range env {
			lines = append(lines, p.Name+"."+v.Name+"="+e.String())
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
