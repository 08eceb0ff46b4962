package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	fsicp "fsicp"
	"fsicp/internal/progen"
)

// analyzeMethods is the analyze-methods workload: the corpus preloaded
// in process, then the three analyses per op.
func analyzeMethods(b *bench) error {
	dir := filepath.Join(b.workDir, "corpus")
	files, _ := progen.GenerateModules(b.corpusCfg(b.seed))
	refs, err := methodReferences(files)
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	if err := b.runOracle(b.corpusCfg(b.seed), false); err != nil {
		return err
	}
	var prog *fsicp.Program
	if err := b.timedSetup(func() { prog = nil }, func() (err error) {
		if files, err = writeCorpus(dir, b.corpusCfg(b.seed)); err != nil {
			return err
		}
		prog, err = fsicp.LoadDir(dir, fsicp.LoadOptions{Workers: b.nproc})
		return err
	}); err != nil {
		return err
	}
	b.shape = shapeOf(prog, files)
	cfgs := methodConfigs(b.nproc)
	if b.traced {
		prog = nil
		return b.tracedRun(tracedInput{files: files, cfgs: cfgs, refs: refs,
			stream: editStream(files, b.seed, corpusReplayEdits+1), name: "corpus"})
	}

	resetPeakRSS()
	var wall []float64
	end := b.deadline()
	for len(wall) == 0 || time.Now().Before(end) {
		as := make([]*fsicp.Analysis, len(cfgs))
		t0 := time.Now()
		for i, cfg := range cfgs {
			as[i] = prog.Analyze(cfg)
		}
		wall = append(wall, time.Since(t0).Seconds())
		for i, cfg := range cfgs {
			got, err := encodeReport(prog, as[i], cfg)
			b.checkReport(fmt.Sprintf("op %d %s", len(wall), cfg.Method), got, refs[i], err)
		}
	}
	peak := peakRSS()
	runtime.KeepAlive(prog)
	b.named = append(b.named, named{Name: "analyze_s", Value: median(wall), Unit: "s", N: len(wall)},
		named{Name: "analyze_rss_mib", Value: peak, Unit: "MiB", N: 1})
	b.samples["analyze_s"] = wall
	b.metrics["op_ms"] = metric{median(wall) * 1000, "ms"}
	b.metrics["rss_mib"] = metric{peak, "MiB"}
	return nil
}

// methodReferences computes each method's report cold and serially.
func methodReferences(files []progen.File) ([][]byte, error) {
	prog, err := fsicp.LoadFiles(sourceFiles(files), fsicp.LoadOptions{Workers: 1})
	if err != nil {
		return nil, err
	}
	var refs [][]byte
	for _, cfg := range methodConfigs(1) {
		b, err := encodeReport(prog, prog.Analyze(cfg), cfg)
		if err != nil {
			return nil, err
		}
		refs = append(refs, b)
	}
	return refs, nil
}

// resetPeakRSS restarts the kernel's peak-RSS watermark for this
// process, so peakRSS covers only what follows.
func resetPeakRSS() {
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort: without it the peak covers the whole run
}

// peakRSS reads this process's peak resident set size in MiB.
func peakRSS() float64 { return statusMiB("/proc/self/status", "VmHWM:") }

// statusMiB reads one kB-valued field of a /proc status file in MiB;
// 0 when it cannot be read.
func statusMiB(path, field string) float64 {
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field); ok {
			kib, _ := strconv.Atoi(strings.TrimSuffix(strings.TrimSpace(rest), " kB"))
			return float64(kib) / 1024
		}
	}
	return 0
}
