// Large-corpus coverage: the streaming multi-file front end and the
// exact-size per-procedure tables exist so 10k+-procedure corpora load
// and analyse within ordinary memory; these tests generate such
// corpora with progen's module generator and run the real pipeline
// over them.
package fsicp_test

import (
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	fsicp "fsicp"
	"fsicp/internal/progen"
)

// corpus2k is the mid-size corpus the determinism and benchmark
// workloads share: 16 modules × 128 procedures + main = 2049
// procedures. Large enough that per-file parse shards, the merge, and
// the wavefront all do real work; small enough to re-analyse at
// several worker counts in one test run.
func corpus2k() ([]progen.File, progen.Manifest) {
	return progen.GenerateModules(progen.ModuleConfig{
		Seed: 20260808, Modules: 16, ProcsPerModule: 128,
		Globals: 8, BlockData: 16, SCCSize: 4, FanOut: 6, MaxStmts: 4,
		AllowFloats: true,
	})
}

// corpus10k is the acceptance-scale corpus: 32 modules × 320
// procedures + main = 10241 procedures across 33 files.
func corpus10k() ([]progen.File, progen.Manifest) {
	return progen.GenerateModules(progen.ModuleConfig{
		Seed: 20260808, Modules: 32, ProcsPerModule: 320,
		Globals: 8, BlockData: 16, SCCSize: 4, FanOut: 8, MaxStmts: 3,
		AllowFloats: true,
	})
}

// fingerprintConstants renders an analysis's constants sorted by
// procedure and variable, for order-insensitive comparison.
func fingerprintConstants(a *fsicp.Analysis) string {
	lines := make([]string, 0, 64)
	for _, c := range a.Constants() {
		lines = append(lines, c.Proc+"."+c.Var+"="+c.Value+" ("+c.Kind+")")
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

func asSourceFiles(files []progen.File) []fsicp.SourceFile {
	out := make([]fsicp.SourceFile, len(files))
	for i, f := range files {
		out[i] = fsicp.SourceFile{Name: f.Name, Src: f.Src}
	}
	return out
}

// TestLargeCorpusEndToEnd is the scaling acceptance test: a generated
// 10k+-procedure multi-module corpus must load through the streaming
// front end and analyse to completion with the default configuration.
func TestLargeCorpusEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-procedure corpus; skipped with -short")
	}
	files, m := corpus10k()
	if m.Procs < 10000 {
		t.Fatalf("corpus has %d procedures, want >= 10000", m.Procs)
	}
	start := time.Now()
	prog, err := fsicp.LoadFiles(asSourceFiles(files), fsicp.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	loaded := time.Now()
	a := prog.Analyze(fsicp.Config{Method: fsicp.FlowSensitive, PropagateFloats: true})
	t.Logf("%d procedures in %d files: load %v, analyse %v",
		m.Procs, len(files), loaded.Sub(start).Round(time.Millisecond),
		time.Since(loaded).Round(time.Millisecond))
	if got := len(prog.Procedures()); got != m.Procs {
		t.Errorf("loaded %d procedures, manifest says %d", got, m.Procs)
	}
	if len(a.Constants()) == 0 {
		t.Error("flow-sensitive analysis found no constants in the generated corpus")
	}
	// Memory sampling is always on: every pass row of the stats table,
	// load and analysis alike, carries the heap at pass exit.
	table := a.StatsTable()
	for _, line := range strings.Split(strings.TrimSpace(table), "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[0] != "PASS" && f[0] != "TOTAL" && !strings.Contains(line, "heap=") {
			t.Errorf("stats row without a heap= note: %q\n%s", line, table)
		}
	}
}

// TestLargeCorpusHuge is the full-scale run (64 modules × 400 procs +
// main = 25601 procedures). It is opt-in via FSICP_BENCH_LARGE=1 —
// minutes of work, meant for CI's scheduled large-corpus job.
func TestLargeCorpusHuge(t *testing.T) {
	if os.Getenv("FSICP_BENCH_LARGE") == "" {
		t.Skip("set FSICP_BENCH_LARGE=1 to run the 25k-procedure corpus")
	}
	files, m := progen.GenerateModules(progen.ModuleConfig{
		Seed: 20260808, Modules: 64, ProcsPerModule: 400,
		Globals: 8, BlockData: 16, SCCSize: 4, FanOut: 8, MaxStmts: 3,
		AllowFloats: true,
	})
	prog, err := fsicp.LoadFiles(asSourceFiles(files), fsicp.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a := prog.Analyze(fsicp.Config{Method: fsicp.FlowSensitive, PropagateFloats: true})
	t.Logf("%d procedures: %d constants in %v", m.Procs, len(a.Constants()), a.Duration())
}

// TestLargeCorpusDeterministicAcrossWorkers asserts the multi-file
// load is invisible in the result at scale: on a 2k-procedure corpus
// the IR dump, the call graph, and the flow-sensitive report are
// byte-identical for workers 1, 2, 4, and 8 — both load-shard fan-out
// and analysis wavefront width.
func TestLargeCorpusDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("2k-procedure corpus at four worker counts; skipped with -short")
	}
	files, _ := corpus2k()
	src := asSourceFiles(files)
	var want string
	for _, workers := range []int{1, 2, 4, 8} {
		prog, err := fsicp.LoadFiles(src, fsicp.LoadOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		a := prog.Analyze(fsicp.Config{Method: fsicp.FlowSensitive, PropagateFloats: true, Workers: workers})
		got := prog.DumpIR() + prog.DumpCallGraph() + fingerprint(a)
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("workers=%d: corpus load/analysis diverged from workers=1", workers)
		}
	}
}

// TestLargeCorpusMalformedFile asserts error hygiene in the streaming
// parse: a syntax error in file k of N must surface that file's name
// and position, cancel the outstanding shards without leaking
// goroutines, and leave the loader reusable.
func TestLargeCorpusMalformedFile(t *testing.T) {
	files, _ := progen.GenerateModules(progen.ModuleConfig{
		Seed: 5, Modules: 6, ProcsPerModule: 10,
	})
	src := asSourceFiles(files)
	// Corrupt the middle module at a known line: line 1 of m0002.mf.
	const bad = 3
	src[bad].Src = "module !!!\n" + src[bad].Src
	before := runtime.NumGoroutine()

	prog, err := fsicp.LoadFiles(src, fsicp.LoadOptions{Workers: 4})
	if err == nil {
		t.Fatal("corpus with a malformed file loaded successfully")
	}
	if prog != nil {
		t.Fatal("failed load returned a program alongside its error")
	}
	want := src[bad].Name + ":1:"
	if !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name the bad file and line (%s)", err, want)
	}
	for i, sf := range src {
		if i != bad && strings.Contains(err.Error(), sf.Name) {
			t.Errorf("error %q names healthy file %s", err, sf.Name)
		}
	}

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked by failed load: %d before, %d after", before, after)
	}

	// The same loader state serves a healthy corpus immediately after.
	good := asSourceFiles(files)
	if _, err := fsicp.LoadFiles(good, fsicp.LoadOptions{Workers: 4}); err != nil {
		t.Fatalf("follow-up load failed: %v", err)
	}
}

// TestLargeCorpusUnitErrors covers the corpus-shape diagnostics: no
// "program" unit among the files, and more than one.
func TestLargeCorpusUnitErrors(t *testing.T) {
	files, _ := progen.GenerateModules(progen.ModuleConfig{
		Seed: 5, Modules: 2, ProcsPerModule: 4,
	})
	src := asSourceFiles(files)

	modulesOnly := src[1:]
	if _, err := fsicp.LoadFiles(modulesOnly, fsicp.LoadOptions{}); err == nil ||
		!strings.Contains(err.Error(), "no 'program' unit") {
		t.Errorf("modules-only corpus error = %v, want a no-program diagnostic", err)
	}

	twoRoots := append([]fsicp.SourceFile{{Name: "extra.mf", Src: "program extra\nproc main() {\n  var x int = 1\n  print x\n}\n"}}, src...)
	if _, err := fsicp.LoadFiles(twoRoots, fsicp.LoadOptions{}); err == nil ||
		!strings.Contains(err.Error(), "more than one 'program' unit") {
		t.Errorf("two-root corpus error = %v, want a duplicate-program diagnostic", err)
	}

	if _, err := fsicp.LoadFiles(nil, fsicp.LoadOptions{}); err == nil {
		t.Error("empty corpus loaded successfully")
	}
}

// TestLoadDirCorpus covers directory ingestion: via the progen
// manifest when present, via the *.mf glob when not.
func TestLoadDirCorpus(t *testing.T) {
	files, m := progen.GenerateModules(progen.ModuleConfig{
		Seed: 9, Modules: 3, ProcsPerModule: 6,
	})
	dir := t.TempDir()
	if err := progen.WriteCorpus(dir, files, m); err != nil {
		t.Fatal(err)
	}
	prog, err := fsicp.LoadDir(dir, fsicp.LoadOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(prog.Procedures()); got != m.Procs {
		t.Errorf("manifest load: %d procedures, want %d", got, m.Procs)
	}

	// Without the manifest the loader falls back to *.mf in lexical
	// order ("main.mf" sorts after the modules; order must not matter).
	if err := os.Remove(filepath.Join(dir, progen.ManifestName)); err != nil {
		t.Fatal(err)
	}
	prog2, err := fsicp.LoadDir(dir, fsicp.LoadOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Glob order differs from manifest order (m0000.mf sorts before
	// main.mf), so the IR dump order differs — but the corpus content
	// must be the same: identical procedure sets, identical constants.
	a1 := prog.Analyze(fsicp.Config{Method: fsicp.FlowSensitive, PropagateFloats: true})
	a2 := prog2.Analyze(fsicp.Config{Method: fsicp.FlowSensitive, PropagateFloats: true})
	procs1, procs2 := prog.Procedures(), prog2.Procedures()
	sort.Strings(procs1)
	sort.Strings(procs2)
	if !slices.Equal(procs1, procs2) {
		t.Error("glob load produced a different procedure set than manifest load")
	}
	if fingerprintConstants(a1) != fingerprintConstants(a2) {
		t.Error("glob load produced different constants than manifest load")
	}

	if _, err := fsicp.LoadDir(t.TempDir(), fsicp.LoadOptions{}); err == nil {
		t.Error("empty directory loaded successfully")
	}
}

// TestLoadStreamingResidency asserts the bounded-buffer contract of
// the streaming directory loader: while parsing an N-file corpus with
// W workers, at most W file contents are resident at once. The parse
// pass reports its peak resident source bytes as "src-peak="; that
// peak must fit within the W largest files combined — and sit below
// the corpus total, which is what the pre-streaming loader
// materialized up front.
func TestLoadStreamingResidency(t *testing.T) {
	files, m := progen.GenerateModules(progen.ModuleConfig{
		Seed: 11, Modules: 12, ProcsPerModule: 24,
	})
	dir := t.TempDir()
	if err := progen.WriteCorpus(dir, files, m); err != nil {
		t.Fatal(err)
	}
	const workers = 2
	prog, err := fsicp.LoadDir(dir, fsicp.LoadOptions{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	peak := parseSrcPeak(t, prog)

	sizes := make([]int, 0, len(files))
	total := 0
	for _, f := range files {
		sizes = append(sizes, len(f.Src))
		total += len(f.Src)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	bound := 0
	for _, s := range sizes[:workers] {
		bound += s
	}
	if peak <= 0 {
		t.Fatal("parse recorded no resident source bytes")
	}
	if peak > bound {
		t.Errorf("parse held %d source bytes resident; %d workers over files of sizes %v should hold at most %d",
			peak, workers, sizes[:workers], bound)
	}
	if peak >= total {
		t.Errorf("parse residency %d is not below the corpus total %d — streaming is not releasing file contents",
			peak, total)
	}
}

// parseSrcPeak extracts the "src-peak=" note from the parse pass's
// stats row (the load trace is carried into every Analysis).
func parseSrcPeak(t *testing.T, prog *fsicp.Program) int {
	t.Helper()
	a := prog.Analyze(fsicp.Config{Method: fsicp.FlowInsensitive})
	for _, st := range a.Stats() {
		if st.Name != "parse" {
			continue
		}
		i := strings.Index(st.Notes, "src-peak=")
		if i < 0 {
			break
		}
		n, err := strconv.Atoi(strings.Fields(st.Notes[i+len("src-peak="):])[0])
		if err != nil {
			t.Fatalf("unparseable src-peak note %q: %v", st.Notes, err)
		}
		return n
	}
	t.Fatal("no src-peak note in the parse pass stats")
	return 0
}

// corpus2kProgram loads the 2k corpus exactly once per process and
// shares the Program across every analysis-only benchmark iteration
// (including the gate's in-process re-measurement), so the load phase
// is amortized out of the measurement entirely.
var corpus2kProgram = sync.OnceValues(func() (*fsicp.Program, error) {
	files, _ := corpus2k()
	return fsicp.LoadFiles(asSourceFiles(files), fsicp.LoadOptions{Workers: 4})
})

// BenchmarkAnalyzeLargeCorpus isolates the analysis phase at corpus
// scale: the 2049-procedure corpus is loaded once, and each iteration
// runs only the flow-sensitive analysis. It sits in the allocation
// gate with an allocs/op and a peak-live-heap budget (BENCH_icp.json),
// so regressions in the wavefront, the sparse global domain, the
// pooled scc results, or delta propagation fail loudly without load
// noise masking them.
func BenchmarkAnalyzeLargeCorpus(b *testing.B) {
	prog, err := corpus2kProgram()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog.Analyze(fsicp.Config{Method: fsicp.FlowSensitive, PropagateFloats: true, Workers: 4})
	}
}

// BenchmarkLargeCorpus is the cold end-to-end run at corpus scale:
// generate-once, then load + flow-sensitive analysis of the
// 2049-procedure multi-module corpus per iteration. It sits in the
// allocation gate with both an allocs/op and a peak-heap budget
// (BENCH_icp.json), so scaling regressions in the front end or the
// per-procedure tables fail loudly.
func BenchmarkLargeCorpus(b *testing.B) {
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
}
