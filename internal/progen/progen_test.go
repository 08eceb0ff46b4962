package progen_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"fsicp/internal/ast"
	"fsicp/internal/icp"
	"fsicp/internal/interp"
	"fsicp/internal/irbuild"
	"fsicp/internal/jumpfunc"
	"fsicp/internal/parser"
	"fsicp/internal/progen"
	"fsicp/internal/sem"
	"fsicp/internal/soundness"
	"fsicp/internal/source"
	"fsicp/internal/val"
)

func compile(t *testing.T, src string) (*icp.Context, bool) {
	t.Helper()
	f := source.NewFile("gen.mf", src)
	astProg, err := parser.ParseFile(f)
	if err != nil {
		t.Fatalf("generated program does not parse: %v\n%s", err, src)
	}
	sp, err := sem.Check(astProg, f)
	if err != nil {
		t.Fatalf("generated program does not check: %v\n%s", err, src)
	}
	prog, err := irbuild.Build(sp)
	if err != nil {
		t.Fatalf("generated program does not lower: %v\n%s", err, src)
	}
	return icp.Prepare(prog), true
}

func inputFor(seed int64) func(t ast.Type) val.Value {
	rng := rand.New(rand.NewSource(seed * 7919))
	return func(t ast.Type) val.Value {
		switch t {
		case ast.TypeReal:
			return val.Real(float64(rng.Intn(100)) / 4)
		case ast.TypeBool:
			return val.Bool(rng.Intn(2) == 0)
		default:
			return val.Int(int64(rng.Intn(50)))
		}
	}
}

func TestGeneratedProgramsCompileAndTerminate(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		src := progen.Generate(progen.Config{Seed: seed, AllowRecursion: true, AllowFloats: true})
		ctx, _ := compile(t, src)
		res := interp.Run(ctx.Prog, interp.Options{Input: inputFor(seed)})
		if res.Err != nil && res.Err != interp.ErrStepLimit {
			t.Fatalf("seed %d: runtime error %v\n%s", seed, res.Err, src)
		}
		if res.Err == interp.ErrStepLimit {
			t.Fatalf("seed %d: did not terminate\n%s", seed, src)
		}
	}
}

func TestDeterministicGeneration(t *testing.T) {
	a := progen.Generate(progen.Config{Seed: 42, AllowRecursion: true, AllowFloats: true})
	b := progen.Generate(progen.Config{Seed: 42, AllowRecursion: true, AllowFloats: true})
	if a != b {
		t.Fatal("generation is not deterministic for equal seeds")
	}
	c := progen.Generate(progen.Config{Seed: 43})
	if a == c {
		t.Fatal("different seeds produced identical programs")
	}
}

// TestICPSoundness is the central property test: on random programs,
// every constant claimed by every ICP configuration matches the
// interpreter's observations.
func TestICPSoundness(t *testing.T) {
	configs := []icp.Options{
		{Method: icp.FlowInsensitive, PropagateFloats: true},
		{Method: icp.FlowInsensitive, PropagateFloats: false},
		{Method: icp.FlowSensitive, PropagateFloats: true},
		{Method: icp.FlowSensitive, PropagateFloats: false},
		{Method: icp.FlowSensitive, PropagateFloats: true, ReturnConstants: true},
		{Method: icp.FlowSensitive, PropagateFloats: true, ReturnConstants: true, ReturnsRefresh: true},
		{Method: icp.FlowSensitiveIterative, PropagateFloats: true},
	}
	for seed := int64(0); seed < 40; seed++ {
		src := progen.Generate(progen.Config{
			Seed:           seed,
			Procs:          5 + int(seed%5),
			Globals:        3 + int(seed%4),
			AllowRecursion: seed%2 == 0,
			AllowFloats:    seed%3 != 2,
		})
		ctx, _ := compile(t, src)
		run := interp.Run(ctx.Prog, interp.Options{Input: inputFor(seed), TraceGlobalsAtCalls: true})
		if run.Err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, run.Err, src)
		}
		for _, opts := range configs {
			r := icp.Analyze(ctx, opts)
			if bad := soundness.CheckICP(r, run.Trace); len(bad) > 0 {
				t.Errorf("seed %d opts %+v: %d violations:\n%s\nprogram:\n%s",
					seed, opts, len(bad), bad[0], src)
			}
		}
	}
}

// TestJumpFunctionSoundness does the same for the four baseline
// methods, with and without return jump functions.
func TestJumpFunctionSoundness(t *testing.T) {
	kinds := []jumpfunc.Kind{jumpfunc.Literal, jumpfunc.Intra, jumpfunc.PassThrough, jumpfunc.Polynomial}
	for seed := int64(100); seed < 125; seed++ {
		src := progen.Generate(progen.Config{Seed: seed, AllowRecursion: true, AllowFloats: true})
		ctx, _ := compile(t, src)
		run := interp.Run(ctx.Prog, interp.Options{Input: inputFor(seed)})
		if run.Err != nil {
			t.Fatalf("seed %d: %v", seed, run.Err)
		}
		for _, k := range kinds {
			for _, returns := range []bool{false, true} {
				r := jumpfunc.AnalyzeWithReturns(ctx, jumpfunc.Options{Kind: k, Returns: returns})
				if bad := soundness.CheckJump(r, run.Trace); len(bad) > 0 {
					t.Errorf("seed %d kind %v returns=%v: %s\nprogram:\n%s", seed, k, returns, bad[0], src)
				}
			}
		}
	}
}

// TestFSAtLeastAsPreciseAsFI checks the dominance property the paper's
// tables exhibit, value by value: every constant the flow-insensitive
// method finds — a formal or a directly referenced global at a
// procedure's entry, or an argument at a call site — is the same
// constant under the flow-sensitive method, where an argument may also
// be ⊤ (its site is unreachable). It runs on generated programs and on
// every testdata/programs file.
func TestFSAtLeastAsPreciseAsFI(t *testing.T) {
	for seed := int64(200); seed < 240; seed++ {
		src := progen.Generate(progen.Config{Seed: seed, AllowRecursion: seed%2 == 0, AllowFloats: true})
		checkFSDominatesFI(t, fmt.Sprintf("seed %d", seed), src)
	}
	paths, err := filepath.Glob("../../testdata/programs/*.mf")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no testdata programs: %v", err)
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		checkFSDominatesFI(t, filepath.Base(path), string(src))
	}
}

func checkFSDominatesFI(t *testing.T, name, src string) {
	t.Helper()
	ctx, _ := compile(t, src)
	fi := icp.Analyze(ctx, icp.Options{Method: icp.FlowInsensitive, PropagateFloats: true})
	fs := icp.Analyze(ctx, icp.Options{Method: icp.FlowSensitive, PropagateFloats: true})
	for i, p := range ctx.CG.Reachable {
		if fs.Dead(i) {
			continue // FS proved p never executes: strictly stronger
		}
		check := func(v *sem.Var) {
			want := fi.Entry[p].Get(v)
			if got := fs.Entry[p].Get(v); want.IsConst() && !got.Eq(want) {
				t.Errorf("%s: %s at entry to %s is %v under FS, %v under FI", name, v, p.Name, got, want)
			}
		}
		for _, f := range p.Params {
			check(f)
		}
		for _, g := range ctx.Prog.Sem.Globals {
			if ctx.MR.DRef(p).Has(g) {
				check(g)
			}
		}
	}
	for _, e := range ctx.CG.Edges {
		for i := range e.Site.Args {
			want, got := fi.ArgVal(e, i), fs.ArgVal(e, i)
			if want.IsConst() && !got.IsTop() && !got.Eq(want) { // ⊤ = unreachable, stronger
				t.Errorf("%s: argument %d of %s -> %s is %v under FS, %v under FI", name, i, e.Caller.Name, e.Callee.Name, got, want)
			}
		}
	}
}

// TestBaselineHierarchy: LITERAL ⊑ INTRA-family on constant formal
// counts (the jump-function precision ladder of Grove–Torczon).
func TestBaselineHierarchy(t *testing.T) {
	for seed := int64(300); seed < 330; seed++ {
		src := progen.Generate(progen.Config{Seed: seed, AllowFloats: true})
		ctx, _ := compile(t, src)
		count := func(k jumpfunc.Kind) int {
			r := jumpfunc.Analyze(ctx, k)
			n := 0
			for _, e := range r.Formals {
				if e.IsConst() {
					n++
				}
			}
			return n
		}
		lit := count(jumpfunc.Literal)
		intra := count(jumpfunc.Intra)
		pass := count(jumpfunc.PassThrough)
		poly := count(jumpfunc.Polynomial)
		if !(lit <= intra && intra <= pass && pass <= poly) {
			t.Errorf("seed %d: hierarchy violated lit=%d intra=%d pass=%d poly=%d\n%s",
				seed, lit, intra, pass, poly, src)
		}
	}
}
