package main

import (
	"bytes"
	"fmt"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	fsicp "fsicp"
	"fsicp/internal/progen"
)

// coldCompile is the cold-compile workload: the corpus written to a
// directory, then one fsicp process per op.
func coldCompile(b *bench) error {
	dir := filepath.Join(b.workDir, "corpus")
	var files []progen.File
	if err := b.timedSetup(nil, func() (err error) {
		files, err = writeCorpus(dir, b.corpusCfg(b.seed))
		return err
	}); err != nil {
		return err
	}
	ref, shape, err := compileReference(files)
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	b.shape = shape
	if err := b.runOracle(b.corpusCfg(b.seed), false); err != nil {
		return err
	}
	if b.traced {
		return b.tracedRun(tracedInput{files: files, cfgs: []fsicp.Config{compileConfig(b.nproc)}, withOpt: true,
			refs: [][]byte{ref}, stream: editStream(files, b.seed, corpusReplayEdits+1), name: "corpus"})
	}

	bin := filepath.Join(b.bin, "fsicp")
	args := []string{"-returns", "-optimize", "-json", "-workers", strconv.Itoa(b.nproc), dir}
	var wall, rss []float64
	end := b.deadline()
	for len(wall) == 0 || time.Now().Before(end) {
		out, d, maxrss, err := runProcess(bin, args)
		b.checkReport(fmt.Sprintf("fsicp op %d", len(wall)), out, ref, err)
		if err == nil {
			wall = append(wall, d.Seconds())
			rss = append(rss, maxrss)
		}
		if err != nil && len(wall) == 0 && time.Now().After(end) {
			return errNoOps
		}
	}
	b.named = append(b.named,
		named{Name: "compile_s", Value: median(wall), Unit: "s", N: len(wall)},
		named{Name: "compile_rss_mib", Value: median(rss), Unit: "MiB", N: len(rss)})
	b.samples["compile_s"], b.samples["compile_rss_mib"] = wall, rss
	b.metrics["op_ms"] = metric{median(wall) * 1000, "ms"}
	b.metrics["rss_mib"] = metric{median(rss), "MiB"}
	return nil
}

// runProcess runs bin to completion and returns its standard output,
// its wall time and its peak RSS in MiB. A non-zero exit is an error
// carrying the process's standard error.
func runProcess(bin string, args []string) ([]byte, time.Duration, float64, error) {
	cmd := exec.Command(bin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	err := cmd.Run()
	d := time.Since(t0)
	if err != nil {
		return nil, d, 0, fmt.Errorf("%s: %w: %s", filepath.Base(bin), err, bytes.TrimSpace(stderr.Bytes()))
	}
	return stdout.Bytes(), d, maxRSS(cmd), nil
}

// maxRSS reads a finished process's peak resident set size in MiB.
func maxRSS(cmd *exec.Cmd) float64 {
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}

// runOracle runs the independent oracle on the scaled-down instance of
// cfg, flattened to one source when the workload serves one.
func (b *bench) runOracle(cfg progen.ModuleConfig, flat bool) error {
	files, _ := progen.GenerateModules(scaledDown(cfg))
	if flat {
		files = []progen.File{{Name: "main.mf", Src: flatten(files)}}
	}
	if err := oracle(files, &b.tally); err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	return nil
}
