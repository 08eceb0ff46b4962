// The allocation-regression gate: re-measures the guarded benchmarks
// and compares allocs/op against the committed BENCH_icp.json. The
// dense-index IR numbering, slice-backed hot-path tables, and pooled
// SCC scratch exist to keep the analysis allocation-light; this gate
// keeps them honest without requiring a quiet machine (alloc counts
// are deterministic where wall-clock time is not).
package fsicp_test

import (
	"os"
	"sort"
	"testing"

	fsicp "fsicp"
	"fsicp/internal/bench"
	"fsicp/internal/icp"
	"fsicp/internal/metrics"
	"fsicp/internal/ssa"
	"fsicp/internal/tables"
)

// gateBenchmarks are the workloads the gate guards: the analysis
// scheduler on the largest synthetic SPEC program, the full Table 1
// regeneration (both methods plus metric extraction) as the
// paper-table representative, and the sharded load pipeline on the
// largest progen program (serial and workers=4, plus the cold
// end-to-end run) so front-end changes can't silently regress
// load-phase allocations either. BenchmarkColdWarmDisk guards the
// persistent summary store's warm read path: its allocs/op is ~100x
// below the cold analysis, and a regression here means the disk layer
// stopped answering. BenchmarkServeSustained guards the daemon's
// steady state — concurrent clients driving warm sessions through
// edit streams over HTTP — so serving-layer changes can't silently
// pile allocations onto every request. BenchmarkLargeCorpus guards the
// corpus-scale cold path (2049 procedures across 17 files through
// LoadFiles + flow-sensitive analysis) on both allocs/op and peak live
// heap — the scale where a table sized by the program, or a quadratic
// one, shows up long before the small workloads notice.
// BenchmarkSessionEditReturns guards the incremental returns traversal:
// an edit that made it re-run every procedure again would multiply its
// allocs/op several times over. BenchmarkSessionUpdate guards the
// reload of the same edit stream, which the former leaves untimed: an
// update that parsed, checked or lowered every procedure again would
// multiply its allocs/op. BenchmarkSSABuild guards SSA
// construction: the analysis benchmarks reuse the overlays their first
// run built, so only a benchmark that builds every reachable function's
// SSA in each iteration sees a regression in ssa.Build.
func gateBenchmarks(t testing.TB) map[string]func(b *testing.B) {
	t.Helper()
	spice, err := tables.Compile(bench.SPECfp92()[0])
	if err != nil {
		t.Fatal(err)
	}
	suite := make([]*icp.Context, 0, 12)
	for _, p := range bench.SPECfp92() {
		ctx, err := tables.Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		suite = append(suite, ctx)
	}
	loadName, loadSrc := largestProgen()
	return map[string]func(b *testing.B){
		"BenchmarkLoad": func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := fsicp.LoadWith(loadName, loadSrc, fsicp.LoadOptions{Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
		},
		"BenchmarkLoadParallel/workers=4": func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := fsicp.LoadWith(loadName, loadSrc, fsicp.LoadOptions{Workers: 4}); err != nil {
					b.Fatal(err)
				}
			}
		},
		"BenchmarkColdEndToEnd": func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				prog, err := fsicp.LoadWith(loadName, loadSrc, fsicp.LoadOptions{Workers: 4})
				if err != nil {
					b.Fatal(err)
				}
				prog.Analyze(fsicp.Config{Method: fsicp.FlowSensitive, PropagateFloats: true, Workers: 4})
			}
		},
		"BenchmarkColdWarmDisk": func(b *testing.B) { runColdWarmDisk(b, 4) },
		"BenchmarkAnalyzeParallel/workers=1": func(b *testing.B) {
			opts := icp.Options{Method: icp.FlowSensitive, PropagateFloats: true, Workers: 1}
			for i := 0; i < b.N; i++ {
				icp.Analyze(spice, opts)
			}
		},
		"BenchmarkAnalyzeParallel/workers=4": func(b *testing.B) {
			opts := icp.Options{Method: icp.FlowSensitive, PropagateFloats: true, Workers: 4}
			for i := 0; i < b.N; i++ {
				icp.Analyze(spice, opts)
			}
		},
		"BenchmarkAnalysisFS": func(b *testing.B) {
			opts := icp.Options{Method: icp.FlowSensitive, PropagateFloats: true}
			for i := 0; i < b.N; i++ {
				for _, ctx := range suite {
					icp.Analyze(ctx, opts)
				}
			}
		},
		"BenchmarkOptimize": func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				prog, err := fsicp.LoadWith(loadName, loadSrc, fsicp.LoadOptions{Workers: 4})
				if err != nil {
					b.Fatal(err)
				}
				a := prog.Analyze(fsicp.Config{Method: fsicp.FlowSensitive, PropagateFloats: true, Workers: 4})
				b.StartTimer()
				if _, err := a.Optimize(fsicp.AllOptimizations()); err != nil {
					b.Fatal(err)
				}
			}
		},
		"BenchmarkLargeCorpus": func(b *testing.B) {
			files, _ := corpus2k()
			src := asSourceFiles(files)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				prog, err := fsicp.LoadFiles(src, fsicp.LoadOptions{Workers: 4})
				if err != nil {
					b.Fatal(err)
				}
				prog.Analyze(fsicp.Config{Method: fsicp.FlowSensitive, PropagateFloats: true, Workers: 4})
			}
		},
		"BenchmarkAnalyzeLargeCorpus": func(b *testing.B) {
			prog, err := corpus2kProgram()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				prog.Analyze(fsicp.Config{Method: fsicp.FlowSensitive, PropagateFloats: true, Workers: 4})
			}
		},
		"BenchmarkSSABuild": func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, ctx := range suite {
					for _, p := range ctx.CG.Reachable {
						ssa.Build(ctx.Prog.FuncOf[p])
					}
				}
			}
		},
		"BenchmarkServeSustained":     runServeSustained,
		"BenchmarkSessionEditReturns": runSessionEditReturns,
		"BenchmarkSessionUpdate":      runSessionUpdate,
		"BenchmarkTable1": func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, ctx := range suite {
					fi := icp.Analyze(ctx, icp.Options{Method: icp.FlowInsensitive, PropagateFloats: true})
					fs := icp.Analyze(ctx, icp.Options{Method: icp.FlowSensitive, PropagateFloats: true})
					metrics.CallSiteMetrics(fi)
					metrics.CallSiteMetrics(fs)
				}
			}
		},
	}
}

// peakHeapOps names the gated benchmarks that additionally record a
// peak-live-heap number: one sampled operation of the workload. Only
// the corpus-scale runs are worth the extra sampled pass — peak heap
// is where large-corpus regressions (a table sized by the program, an
// unbounded arena) show first, often before allocs/op moves. The
// end-to-end op covers load + analysis; the analysis-only op shares
// the preloaded Program, so its number isolates the analysis phase's
// live-heap high-water mark.
func peakHeapOps() map[string]func() {
	return map[string]func(){
		"BenchmarkLargeCorpus": func() {
			files, _ := corpus2k()
			src := asSourceFiles(files)
			prog, err := fsicp.LoadFiles(src, fsicp.LoadOptions{Workers: 4})
			if err != nil {
				panic(err)
			}
			prog.Analyze(fsicp.Config{Method: fsicp.FlowSensitive, PropagateFloats: true, Workers: 4})
		},
		"BenchmarkAnalyzeLargeCorpus": func() {
			prog, err := corpus2kProgram()
			if err != nil {
				panic(err)
			}
			prog.Analyze(fsicp.Config{Method: fsicp.FlowSensitive, PropagateFloats: true, Workers: 4})
		},
	}
}

func measureGate(t testing.TB, name string, f func(b *testing.B)) bench.Metrics {
	t.Helper()
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		f(b)
	})
	m := bench.Metrics{
		NsPerOp:     float64(r.NsPerOp()),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
	if op, ok := peakHeapOps()[name]; ok {
		m.PeakHeapBytes = bench.MeasurePeakHeap(op).PeakBytes
	}
	return m
}

// gateOrder lists the benchmark names in reverse lexical order. The
// order is fixed so recorded and gated peaks are measured alike, and
// reversed so BenchmarkLargeCorpus samples its cold peak before
// BenchmarkAnalyzeLargeCorpus memoizes the 2k program (corpus2kProgram),
// whose live heap would otherwise count against it.
func gateOrder[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	return names
}

// TestBenchAllocGate fails on gross allocation regressions against the
// committed baseline. It is opt-in (FSICP_BENCH_GATE=1) because it
// re-runs real benchmarks; scripts/check.sh and CI set the variable.
// With FSICP_BENCH_RECORD=1 it instead refreshes the baseline's
// "after" numbers (the "before" column is never touched).
func TestBenchAllocGate(t *testing.T) {
	record := os.Getenv("FSICP_BENCH_RECORD") != ""
	if os.Getenv("FSICP_BENCH_GATE") == "" && !record {
		t.Skip("set FSICP_BENCH_GATE=1 to run the allocation gate (or FSICP_BENCH_RECORD=1 to refresh BENCH_icp.json)")
	}
	benches := gateBenchmarks(t)

	if record {
		measured := make(map[string]bench.Metrics, len(benches))
		for _, name := range gateOrder(benches) {
			measured[name] = measureGate(t, name, benches[name])
			t.Logf("%s: %.0f ns/op, %d B/op, %d allocs/op, peak heap %d",
				name, measured[name].NsPerOp, measured[name].BytesPerOp, measured[name].AllocsPerOp, measured[name].PeakHeapBytes)
		}
		if err := bench.RecordBaseline(bench.BaselineFile, measured); err != nil {
			t.Fatal(err)
		}
		return
	}

	base, err := bench.LoadBaseline(bench.BaselineFile)
	if err != nil {
		t.Fatalf("no committed baseline (run with FSICP_BENCH_RECORD=1 to create one): %v", err)
	}
	for _, name := range gateOrder(base.Benchmarks) {
		entry := base.Benchmarks[name]
		f, ok := benches[name]
		if !ok {
			t.Errorf("%s: in %s but not measured by the gate; update gateBenchmarks", name, bench.BaselineFile)
			continue
		}
		got := measureGate(t, name, f)
		// Alloc counts are deterministic up to map-growth noise and
		// worker scheduling; 1.5x headroom lets those through while
		// still catching a lost pooling or a reverted dense table
		// (which cost 2x+ immediately).
		budget := entry.After.AllocsPerOp + entry.After.AllocsPerOp/2
		if got.AllocsPerOp > budget {
			t.Errorf("%s: %d allocs/op exceeds budget %d (committed after=%d, before=%d)",
				name, got.AllocsPerOp, budget, entry.After.AllocsPerOp, entry.Before.AllocsPerOp)
		} else {
			t.Logf("%s: %d allocs/op within budget %d", name, got.AllocsPerOp, budget)
		}
		// Peak live heap is GC-timing dependent where alloc counts are
		// not, so its budget is looser (2x): it exists to catch the
		// order-of-magnitude blowups a table sized by the program causes,
		// not percent-level drift.
		if entry.After.PeakHeapBytes > 0 {
			heapBudget := entry.After.PeakHeapBytes * 2
			if got.PeakHeapBytes > heapBudget {
				t.Errorf("%s: peak heap %d exceeds budget %d (committed after=%d)",
					name, got.PeakHeapBytes, heapBudget, entry.After.PeakHeapBytes)
			} else {
				t.Logf("%s: peak heap %d within budget %d", name, got.PeakHeapBytes, heapBudget)
			}
		}
	}
}
