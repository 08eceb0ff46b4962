// Benchmarks: one per paper table/figure (regenerating its data on the
// synthetic SPEC suite), plus ablations over the design choices
// DESIGN.md calls out (method, float propagation, return constants,
// alias/MOD preparation, back-edge handling).
//
// Run with: go test -bench=. -benchmem
package fsicp_test

import (
	"fmt"
	"runtime"
	"testing"

	fsicp "fsicp"
	"fsicp/internal/bench"
	"fsicp/internal/clone"
	"fsicp/internal/icp"
	"fsicp/internal/inline"
	"fsicp/internal/interp"
	"fsicp/internal/jumpfunc"
	"fsicp/internal/lattice"
	"fsicp/internal/metrics"
	"fsicp/internal/progen"
	"fsicp/internal/sem"
	"fsicp/internal/tables"
	"fsicp/internal/transform"
)

// compileSuite prepares contexts once; the benchmarks then measure the
// analysis phases proper, matching the paper's "analysis phase of the
// compilation" timing.
func compileSuite(b *testing.B, profiles []bench.Profile) []*icp.Context {
	b.Helper()
	var ctxs []*icp.Context
	for _, p := range profiles {
		ctx, err := tables.Compile(p)
		if err != nil {
			b.Fatal(err)
		}
		ctxs = append(ctxs, ctx)
	}
	return ctxs
}

func runSuite(b *testing.B, ctxs []*icp.Context, opts icp.Options) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ctx := range ctxs {
			icp.Analyze(ctx, opts)
		}
	}
}

// BenchmarkFigure1 regenerates the Figure 1 per-method comparison.
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := tables.Figure1Table(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1 regenerates Table 1 (call-site candidates, SPECfp92,
// both methods plus metric extraction).
func BenchmarkTable1(b *testing.B) {
	ctxs := compileSuite(b, bench.SPECfp92())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ctx := range ctxs {
			fi := icp.Analyze(ctx, icp.Options{Method: icp.FlowInsensitive, PropagateFloats: true})
			fs := icp.Analyze(ctx, icp.Options{Method: icp.FlowSensitive, PropagateFloats: true})
			metrics.CallSiteMetrics(fi)
			metrics.CallSiteMetrics(fs)
		}
	}
}

// BenchmarkTable2 regenerates Table 2 (propagated constants, SPECfp92).
func BenchmarkTable2(b *testing.B) {
	ctxs := compileSuite(b, bench.SPECfp92())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ctx := range ctxs {
			fi := icp.Analyze(ctx, icp.Options{Method: icp.FlowInsensitive, PropagateFloats: true})
			fs := icp.Analyze(ctx, icp.Options{Method: icp.FlowSensitive, PropagateFloats: true})
			metrics.EntryMetrics(fi)
			metrics.EntryMetrics(fs)
		}
	}
}

// BenchmarkTable3 regenerates Table 3 (first-release subset, floats
// off, call-site candidates).
func BenchmarkTable3(b *testing.B) {
	ctxs := compileSuite(b, bench.FirstRelease())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ctx := range ctxs {
			fi := icp.Analyze(ctx, icp.Options{Method: icp.FlowInsensitive})
			fs := icp.Analyze(ctx, icp.Options{Method: icp.FlowSensitive})
			metrics.CallSiteMetrics(fi)
			metrics.CallSiteMetrics(fs)
		}
	}
}

// BenchmarkTable4 regenerates Table 4 (first-release subset, floats
// off, propagated constants).
func BenchmarkTable4(b *testing.B) {
	ctxs := compileSuite(b, bench.FirstRelease())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ctx := range ctxs {
			fi := icp.Analyze(ctx, icp.Options{Method: icp.FlowInsensitive})
			fs := icp.Analyze(ctx, icp.Options{Method: icp.FlowSensitive})
			metrics.EntryMetrics(fi)
			metrics.EntryMetrics(fs)
		}
	}
}

// BenchmarkTable5 regenerates Table 5 (intraprocedural substitutions
// under POLYNOMIAL vs FI vs FS).
func BenchmarkTable5(b *testing.B) {
	ctxs := compileSuite(b, bench.FirstRelease())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ctx := range ctxs {
			poly := jumpfunc.Analyze(ctx, jumpfunc.Polynomial)
			fi := icp.Analyze(ctx, icp.Options{Method: icp.FlowInsensitive})
			fs := icp.Analyze(ctx, icp.Options{Method: icp.FlowSensitive})
			transform.CountSubstitutions(ctx, func(q *sem.Proc) lattice.Env[*sem.Var] { return poly.EntryEnv(q) })
			transform.CountSubstitutions(ctx, func(q *sem.Proc) lattice.Env[*sem.Var] { return fi.Entry[q] })
			transform.CountSubstitutions(ctx, func(q *sem.Proc) lattice.Env[*sem.Var] { return fs.Entry[q] })
		}
	}
}

// BenchmarkAnalysisFI and BenchmarkAnalysisFS measure the two analysis
// phases on the full suite — the paper's §4 timing comparison (FS ≈
// 1.5× FI).
func BenchmarkAnalysisFI(b *testing.B) {
	runSuite(b, compileSuite(b, bench.SPECfp92()),
		icp.Options{Method: icp.FlowInsensitive, PropagateFloats: true})
}

func BenchmarkAnalysisFS(b *testing.B) {
	runSuite(b, compileSuite(b, bench.SPECfp92()),
		icp.Options{Method: icp.FlowSensitive, PropagateFloats: true})
}

// Ablation: the return-constant extension's extra reverse traversal.
func BenchmarkAnalysisFSReturns(b *testing.B) {
	runSuite(b, compileSuite(b, bench.SPECfp92()),
		icp.Options{Method: icp.FlowSensitive, PropagateFloats: true, ReturnConstants: true})
}

// Ablation: float propagation off (Tables 3–5 configuration).
func BenchmarkAnalysisFSNoFloats(b *testing.B) {
	runSuite(b, compileSuite(b, bench.SPECfp92()),
		icp.Options{Method: icp.FlowSensitive})
}

// Ablation: the four jump-function baselines on the same suite.
func BenchmarkJumpFunctions(b *testing.B) {
	kinds := []jumpfunc.Kind{jumpfunc.Literal, jumpfunc.Intra, jumpfunc.PassThrough, jumpfunc.Polynomial}
	ctxs := compileSuite(b, bench.SPECfp92())
	for _, k := range kinds {
		k := k
		b.Run(k.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, ctx := range ctxs {
					jumpfunc.Analyze(ctx, k)
				}
			}
		})
	}
}

// BenchmarkPrepare measures the pre-ICP phases (call graph, aliases,
// MOD/REF) the paper's compilation model runs before ICP.
func BenchmarkPrepare(b *testing.B) {
	profiles := bench.SPECfp92()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range profiles {
			if _, err := tables.Compile(p); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkBackEdgeSweep regenerates the §3.2 back-edge ratio
// experiment.
func BenchmarkBackEdgeSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables.BackEdgeSweep(6)
	}
}

// BenchmarkInterp measures the reference interpreter on the suite
// (the soundness oracle's cost).
func BenchmarkInterp(b *testing.B) {
	ctxs := compileSuite(b, bench.SPECfp92())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ctx := range ctxs {
			r := interp.Run(ctx.Prog, interp.Options{MaxSteps: 10_000_000})
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
}

// BenchmarkTransform measures the transformation phase (the fold pass
// alone) under the FS solution.
func BenchmarkTransform(b *testing.B) {
	profiles := bench.SPECfp92()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		var ctxs []*icp.Context
		var results []*icp.Result
		for _, p := range profiles {
			ctx, err := tables.Compile(p)
			if err != nil {
				b.Fatal(err)
			}
			ctxs = append(ctxs, ctx)
			results = append(results, icp.Analyze(ctx, icp.Options{Method: icp.FlowSensitive, PropagateFloats: true}))
		}
		b.StartTimer()
		for j, ctx := range ctxs {
			r := results[j]
			env := func(q *sem.Proc) lattice.Env[*sem.Var] { return r.Entry[q] }
			if _, err := transform.Optimize(ctx, env, transform.Options{Passes: []string{transform.PassFold}, Workers: 1}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkOptimize measures the full four-pass optimization pipeline
// (fold, copy propagation, CSE, LICM) on the largest progen program
// under the FS solution. Loading and analysing sit outside the timer;
// each iteration rebuilds them because Optimize mutates the program.
func BenchmarkOptimize(b *testing.B) {
	name, src := largestProgen()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		prog, err := fsicp.LoadWith(name, src, fsicp.LoadOptions{Workers: 4})
		if err != nil {
			b.Fatal(err)
		}
		a := prog.Analyze(fsicp.Config{Method: fsicp.FlowSensitive, PropagateFloats: true, Workers: 4})
		b.StartTimer()
		if _, err := a.Optimize(fsicp.AllOptimizations()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInline measures full procedure integration on the suite
// (the Wegman–Zadeck alternative the paper's related work discusses).
func BenchmarkInline(b *testing.B) {
	profiles := bench.FirstRelease()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range profiles {
			ctx, err := tables.Compile(p)
			if err != nil {
				b.Fatal(err)
			}
			inline.Program(ctx.Prog, inline.Options{MaxDepth: 4})
		}
	}
}

// BenchmarkClone measures one goal-directed cloning round plus the
// re-analysis (the Metzger–Stroud experiment).
func BenchmarkClone(b *testing.B) {
	profiles := bench.FirstRelease()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range profiles {
			ctx, err := tables.Compile(p)
			if err != nil {
				b.Fatal(err)
			}
			fs := icp.Analyze(ctx, icp.Options{Method: icp.FlowSensitive})
			clone.Run(ctx, fs, clone.Options{MaxClonesPerProc: 4})
			ctx2 := icp.Prepare(ctx.Prog)
			icp.Analyze(ctx2, icp.Options{Method: icp.FlowSensitive})
		}
	}
}

// BenchmarkJumpFunctionsWithReturns measures the return-jump-function
// ablation.
func BenchmarkJumpFunctionsWithReturns(b *testing.B) {
	ctxs := compileSuite(b, bench.SPECfp92())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ctx := range ctxs {
			jumpfunc.AnalyzeWithReturns(ctx, jumpfunc.Options{Kind: jumpfunc.Polynomial, Returns: true})
		}
	}
}

// BenchmarkIterative measures the fully iterative flow-sensitive
// fixpoint (the method the paper's one-pass algorithm avoids).
func BenchmarkIterative(b *testing.B) {
	runSuite(b, compileSuite(b, bench.SPECfp92()),
		icp.Options{Method: icp.FlowSensitiveIterative, PropagateFloats: true})
}

// BenchmarkAnalyzeParallel compares the dependency-driven scheduler's worker
// counts on the largest synthetic SPEC program (013.spice2g6, 120
// procedures). On a multi-core machine the higher worker counts should
// beat workers=1; the solution is byte-identical either way (the
// determinism test asserts that).
func BenchmarkAnalyzeParallel(b *testing.B) {
	profile := bench.SPECfp92()[0]
	ctx, err := tables.Compile(profile)
	if err != nil {
		b.Fatal(err)
	}
	counts := []int{1, 4}
	if n := runtime.GOMAXPROCS(0); n != 1 && n != 4 {
		counts = append(counts, n)
	}
	for _, w := range counts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			opts := icp.Options{Method: icp.FlowSensitive, PropagateFloats: true, Workers: w}
			for i := 0; i < b.N; i++ {
				icp.Analyze(ctx, opts)
			}
		})
	}
}

// largestProgen is the load-phase benchmark source: the largest
// deterministic progen program (241 procedures, ~160 KB). The sharded
// load passes fan over every procedure during lowering, so this is
// where front-end parallelism has the most work to hide; the seed is
// fixed so the alloc gate's numbers stay comparable across runs.
func largestProgen() (name, src string) {
	return "progen-large.mf", progen.Generate(progen.Config{
		Seed: 20260805, Procs: 240, Globals: 12, AllowFloats: true, MaxStmts: 28,
	})
}

// BenchmarkLoad measures the serial (workers=1) load pipeline — parse
// through clobber insertion — on the largest progen program.
func BenchmarkLoad(b *testing.B) {
	name, src := largestProgen()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fsicp.LoadWith(name, src, fsicp.LoadOptions{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoadParallel compares worker counts for the sharded load
// passes (per-procedure lowering, alias partners, MOD/REF collection,
// clobbers). Parse and sem stay serial, as do the
// numbering epilogue and the interprocedural fixpoints, so the
// attainable speedup is bounded by that serial fraction (Amdahl); on a
// multi-core machine workers=4 should still clearly beat workers=1.
// The result is byte-identical for every worker count (the load
// determinism test asserts that).
func BenchmarkLoadParallel(b *testing.B) {
	name, src := largestProgen()
	counts := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n != 1 && n != 2 && n != 4 {
		counts = append(counts, n)
	}
	for _, w := range counts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := fsicp.LoadWith(name, src, fsicp.LoadOptions{Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkColdEndToEnd measures a full cold run — sharded load plus
// flow-sensitive analysis — the way cmd/fsicp experiences it, with one
// worker bound governing both phases. The analysis builds each
// procedure's SSA the first time FS reads it.
func BenchmarkColdEndToEnd(b *testing.B) {
	name, src := largestProgen()
	w := runtime.GOMAXPROCS(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog, err := fsicp.LoadWith(name, src, fsicp.LoadOptions{Workers: w})
		if err != nil {
			b.Fatal(err)
		}
		prog.Analyze(fsicp.Config{Method: fsicp.FlowSensitive, PropagateFloats: true, Workers: w})
	}
}

// BenchmarkColdWarmDisk measures the analysis phase of a process that
// starts with an empty in-memory cache but a warm persistent store —
// the cold-start scenario Config.CacheDir exists for. A prewarm run
// populates the store once; each iteration then reloads the program
// from source (outside the timer — BenchmarkColdEndToEnd prices the
// load) and analyses it with only the disk layer warm, so the timed
// region is exactly what the persistent store can accelerate: it must
// beat the analysis share of BenchmarkColdEndToEnd (its ns/op minus
// BenchmarkLoad's) by at least 2x.
func BenchmarkColdWarmDisk(b *testing.B) { runColdWarmDisk(b, runtime.GOMAXPROCS(0)) }

// runColdWarmDisk is BenchmarkColdWarmDisk's body, shared with the
// allocation gate. The prewarm, which analyses cold and fills the
// store, runs before the timer resets, so allocs/op prices only warm
// analyses whatever b.N the framework picks.
func runColdWarmDisk(b *testing.B, workers int) {
	name, src := largestProgen()
	dir := b.TempDir()
	cfg := fsicp.Config{Method: fsicp.FlowSensitive, PropagateFloats: true, Workers: workers, CacheDir: dir}
	prewarm, err := fsicp.LoadWith(name, src, fsicp.LoadOptions{Workers: workers})
	if err != nil {
		b.Fatal(err)
	}
	if prewarm.Analyze(cfg).CacheStats().DiskWrites == 0 {
		b.Fatal("prewarm run wrote nothing to the store")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		prog, err := fsicp.LoadWith(name, src, fsicp.LoadOptions{Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		a := prog.Analyze(cfg)
		if i == 0 && a.CacheStats().DiskHits == 0 {
			b.Fatal("warm run hit nothing on disk")
		}
	}
}

// BenchmarkSessionEditReturns prices the analysis a daemon /update
// pays: the 257-procedure program under FS with return constants, one
// worker, cycling an 8-version progen.Edit stream through one Session.
// Update, the reload, is untimed, so an operation is the incremental
// analysis alone, where the returns traversal's reuse shows.
func BenchmarkSessionEditReturns(b *testing.B) { runSessionEditReturns(b) }

func runSessionEditReturns(b *testing.B) {
	versions := editStream257()
	cfg := fsicp.Config{Method: fsicp.FlowSensitive, PropagateFloats: true, ReturnConstants: true, Workers: 1}
	sess, err := fsicp.NewSessionWith("edit.mf", versions[0], fsicp.LoadOptions{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	sess.Analyze(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if _, err := sess.Update(versions[(i+1)%len(versions)]); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		sess.Analyze(cfg)
	}
}

// editStream257 is the 8-version progen.Edit stream of program257 the
// session benchmarks cycle through.
func editStream257() []string {
	versions := []string{program257()}
	for i := int64(1); i < 8; i++ {
		versions = append(versions, progen.Edit(versions[i-1], i))
	}
	return versions
}

// BenchmarkSessionUpdate prices the reload a daemon /update pays:
// Session.Update alone, one worker, cycling the 8-version progen.Edit
// stream of program257. Every version changes procedure bodies only,
// so each update parses, checks and lowers just the changed
// procedures and runs the interprocedural passes over the whole
// program.
func BenchmarkSessionUpdate(b *testing.B) { runSessionUpdate(b) }

func runSessionUpdate(b *testing.B) {
	versions := editStream257()
	sess, err := fsicp.NewSessionWith("edit.mf", versions[0], fsicp.LoadOptions{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Update(versions[(i+1)%len(versions)]); err != nil {
			b.Fatal(err)
		}
	}
}
