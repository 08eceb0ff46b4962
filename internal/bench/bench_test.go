package bench_test

import (
	"context"
	"testing"

	"fsicp/internal/bench"
	"fsicp/internal/icp"
	"fsicp/internal/interp"
	"fsicp/internal/metrics"
	"fsicp/internal/soundness"
	"fsicp/internal/testutil"
)

func analyzeProfile(t *testing.T, p bench.Profile, floats bool) (*icp.Context, *icp.Result, *icp.Result) {
	t.Helper()
	src := bench.Build(p)
	prog := testutil.MustBuild(t, src)
	ctx := icp.Prepare(prog)
	fi := icp.Analyze(ctx, icp.Options{Method: icp.FlowInsensitive, PropagateFloats: floats})
	fs := icp.Analyze(ctx, icp.Options{Method: icp.FlowSensitive, PropagateFloats: floats})
	return ctx, fi, fs
}

// TestRunMatrixWorkers runs the seven methods of RunMatrix at once on
// one context, so they fill its SSA concurrently, and checks every
// entry against a serial run on a fresh context.
func TestRunMatrixWorkers(t *testing.T) {
	p := bench.SPECfp92()[0]
	if p.Name != "013.spice2g6" {
		t.Fatalf("first profile is %s, want 013.spice2g6", p.Name)
	}
	run := func(workers int) bench.Matrix {
		ctx := icp.Prepare(testutil.MustBuild(t, bench.Build(p)))
		return bench.RunMatrix(context.Background(), ctx, true, workers, "")
	}
	serial, parallel := run(1), run(8)
	for i, e := range parallel.Entries {
		s := serial.Entries[i]
		if e.Name != s.Name || e.ConstFormals != s.ConstFormals || e.ConstEntries != s.ConstEntries {
			t.Errorf("workers=8 %s: %d formals, %d entries; workers=1 %s: %d, %d",
				e.Name, e.ConstFormals, e.ConstEntries, s.Name, s.ConstFormals, s.ConstEntries)
		}
	}
}

// TestExactCells asserts the by-construction cells of every benchmark:
// ARG, IMM, FI, FS (arguments), FP, FI, FS (formals), Procs, global
// candidates, and global entry counts — the paper's Tables 1 and 2.
func TestExactCells(t *testing.T) {
	for _, p := range bench.SPECfp92() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			_, fi, fs := analyzeProfile(t, p, true)
			csFI := metrics.CallSiteMetrics(fi)
			csFS := metrics.CallSiteMetrics(fs)
			enFI := metrics.EntryMetrics(fi)
			enFS := metrics.EntryMetrics(fs)

			if csFI.Args != p.Args || csFS.Args != p.Args {
				t.Errorf("ARG = %d/%d, want %d", csFI.Args, csFS.Args, p.Args)
			}
			if csFI.Imm != p.Imm {
				t.Errorf("IMM = %d, want %d", csFI.Imm, p.Imm)
			}
			if csFI.ConstArgs != p.FIArgs {
				t.Errorf("FI args = %d, want %d", csFI.ConstArgs, p.FIArgs)
			}
			if csFS.ConstArgs != p.FSArgs {
				t.Errorf("FS args = %d, want %d", csFS.ConstArgs, p.FSArgs)
			}
			if enFI.Formals != p.Formals {
				t.Errorf("FP = %d, want %d", enFI.Formals, p.Formals)
			}
			if enFI.ConstFormals != p.FIFormals {
				t.Errorf("FI formals = %d, want %d", enFI.ConstFormals, p.FIFormals)
			}
			if enFS.ConstFormals != p.FSFormals {
				t.Errorf("FS formals = %d, want %d", enFS.ConstFormals, p.FSFormals)
			}
			if enFI.Procs != p.Procs {
				t.Errorf("Procs = %d, want %d", enFI.Procs, p.Procs)
			}
			if csFI.GlobCand != p.GlobCand {
				t.Errorf("global candidates = %d, want %d", csFI.GlobCand, p.GlobCand)
			}
			if enFI.GlobalEntries != p.GlobFIEntries {
				t.Errorf("global FI entries = %d, want %d", enFI.GlobalEntries, p.GlobFIEntries)
			}
			if enFS.GlobalEntries != p.GlobFSEntries {
				t.Errorf("global FS entries = %d, want %d", enFS.GlobalEntries, p.GlobFSEntries)
			}
		})
	}
}

// TestApproxPairCells checks the per-call-site global pair columns stay
// within 20% of the paper's numbers (they are placement-approximated).
func TestApproxPairCells(t *testing.T) {
	for _, p := range bench.SPECfp92() {
		if p.GlobPairs == 0 {
			continue
		}
		p := p
		t.Run(p.Name, func(t *testing.T) {
			_, _, fs := analyzeProfile(t, p, true)
			cs := metrics.CallSiteMetrics(fs)
			within := func(got, want int) bool {
				d := got - want
				if d < 0 {
					d = -d
				}
				return d*5 <= want || d <= 3 // 20% or tiny absolute
			}
			if !within(cs.GlobPairs, p.GlobPairs) {
				t.Errorf("global pairs = %d, want ≈%d", cs.GlobPairs, p.GlobPairs)
			}
			if !within(cs.GlobVis, p.GlobVis) {
				t.Errorf("global vis = %d, want ≈%d", cs.GlobVis, p.GlobVis)
			}
			if cs.GlobVis > cs.GlobPairs {
				t.Errorf("vis %d > pairs %d", cs.GlobVis, cs.GlobPairs)
			}
		})
	}
}

// TestFirstReleaseFloatsOff asserts the Table 3/4 cells (no float
// propagation).
func TestFirstReleaseFloatsOff(t *testing.T) {
	for _, p := range bench.FirstRelease() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			_, fi, fs := analyzeProfile(t, p, false)
			csFI := metrics.CallSiteMetrics(fi)
			csFS := metrics.CallSiteMetrics(fs)
			enFI := metrics.EntryMetrics(fi)
			enFS := metrics.EntryMetrics(fs)

			if csFI.Args != p.Args {
				t.Errorf("ARG = %d, want %d", csFI.Args, p.Args)
			}
			if csFI.Imm != p.Imm {
				t.Errorf("IMM = %d, want %d", csFI.Imm, p.Imm)
			}
			if csFI.ConstArgs != p.FIArgs {
				t.Errorf("FI args = %d, want %d", csFI.ConstArgs, p.FIArgs)
			}
			// Floats off: the float FS-only arguments drop out.
			if want := p.FSArgs - p.FSArgsFloat; csFS.ConstArgs != want {
				t.Errorf("FS args = %d, want %d", csFS.ConstArgs, want)
			}
			if enFI.ConstFormals != p.FIFormals || enFS.ConstFormals != p.FSFormals {
				t.Errorf("formals = %d/%d, want %d/%d", enFI.ConstFormals, enFS.ConstFormals, p.FIFormals, p.FSFormals)
			}
			// All FI global entries are floats: zero with floats off.
			if enFI.GlobalEntries != 0 {
				t.Errorf("global FI entries = %d, want 0", enFI.GlobalEntries)
			}
			if want := p.GlobFSEntries - p.GlobFSEntriesFloat; enFS.GlobalEntries != want {
				t.Errorf("global FS entries = %d, want %d", enFS.GlobalEntries, want)
			}
		})
	}
}

// TestSuiteSoundness executes every benchmark and checks both methods'
// claims against the interpreter.
func TestSuiteSoundness(t *testing.T) {
	for _, p := range bench.SPECfp92() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			ctx, fi, fs := analyzeProfile(t, p, true)
			run := interp.Run(ctx.Prog, interp.Options{TraceGlobalsAtCalls: true, MaxSteps: 10_000_000})
			if run.Err != nil {
				t.Fatalf("run: %v", run.Err)
			}
			if bad := soundness.CheckICP(fi, run.Trace); len(bad) > 0 {
				t.Errorf("FI unsound: %s", bad[0])
			}
			if bad := soundness.CheckICP(fs, run.Trace); len(bad) > 0 {
				t.Errorf("FS unsound: %s", bad[0])
			}
		})
	}
}

func TestBuildDeterministic(t *testing.T) {
	p := bench.SPECfp92()[0]
	if bench.Build(p) != bench.Build(p) {
		t.Fatal("Build is not deterministic")
	}
}
