package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

	fsicp "fsicp"
	"fsicp/internal/icp"
	"fsicp/internal/interp"
	"fsicp/internal/progen"
	"fsicp/internal/report"
	"fsicp/internal/soundness"
)

// tally counts checked operations and the ones that failed. Every
// wrong or missing answer is one failure. Safe for concurrent use.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	msgs      []string
}

// check records one checked operation; a false ok is a failure
// described by the formatted message.
func (t *tally) check(ok bool, format string, args ...any) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if !ok {
		t.failed++
		if len(t.msgs) < 20 {
			t.msgs = append(t.msgs, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

func (t *tally) ratio() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// checkReport records one report comparison: got must equal want byte
// for byte, or in canonical form when a transport re-indented it (see
// canonical). The digests are computed only to describe a mismatch.
func (b *bench) checkReport(what string, got, want []byte, err error) {
	if err == nil && (bytes.Equal(got, want) || digest(got) == digest(want)) {
		b.tally.check(true, "")
		return
	}
	b.tally.check(false, "%s: report digest %s, want %s (err %v)", what, digest(got), digest(want), err)
}

// canonical compacts a JSON report so comparisons ignore how a
// transport indented it, and drops the cache block, which is
// observability that differs between cold and warm runs. Every other
// byte counts.
func canonical(b []byte) ([]byte, error) {
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("report is not a JSON object: %w", err)
	}
	if _, ok := doc["cache"]; ok {
		var r report.Report
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, err
		}
		r.Cache = nil
		var err error
		if b, err = r.Encode(); err != nil {
			return nil, err
		}
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, b); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// digest is the hex SHA-256 of a report's canonical form; "invalid"
// for bytes that are not a report.
func digest(b []byte) string {
	c, err := canonical(b)
	if err != nil {
		return "invalid"
	}
	sum := sha256.Sum256(c)
	return hex.EncodeToString(sum[:])
}

// encodeReport renders one facade analysis as `fsicp -json` does.
func encodeReport(prog *fsicp.Program, a *fsicp.Analysis, cfg fsicp.Config) ([]byte, error) {
	return report.Build(prog, a, cfg).Encode()
}

// compileConfig is the analysis `fsicp -returns -json` runs, and the
// one the daemon runs for a request with returns on.
func compileConfig(workers int) fsicp.Config {
	return fsicp.Config{Method: fsicp.FlowSensitive, PropagateFloats: true, ReturnConstants: true, Workers: workers}
}

// methodConfigs are the three analyses of one analyze-methods op, in
// op order.
func methodConfigs(workers int) []fsicp.Config {
	return []fsicp.Config{
		{Method: fsicp.FlowInsensitive, PropagateFloats: true, Workers: workers},
		{Method: fsicp.FlowSensitive, PropagateFloats: true, ReturnConstants: true, ReturnsRefresh: true, Workers: workers},
		{Method: fsicp.FlowSensitiveIterative, PropagateFloats: true, Workers: workers},
	}
}

// compileReference computes, cold and serially in process, the exact
// output of `fsicp -returns -optimize -json` on the corpus.
func compileReference(files []progen.File) ([]byte, inputShape, error) {
	prog, err := fsicp.LoadFiles(sourceFiles(files), fsicp.LoadOptions{Workers: 1})
	if err != nil {
		return nil, inputShape{}, err
	}
	cfg := compileConfig(1)
	a := prog.Analyze(cfg)
	rep := report.Build(prog, a, cfg)
	opts := fsicp.AllOptimizations()
	opts.Workers = 1
	opt, err := a.Optimize(opts)
	if err != nil {
		return nil, inputShape{}, err
	}
	rep.Optimize = &opt
	b, err := rep.Encode()
	return b, shapeOf(prog, files), err
}

// coldReport is the reference for one daemon answer: the source loaded
// cold under the daemon's file name and analysed with cfg.
func coldReport(name, src string, cfg fsicp.Config) ([]byte, error) {
	prog, err := fsicp.LoadWith(name+".mf", src, fsicp.LoadOptions{Workers: cfg.Workers})
	if err != nil {
		return nil, err
	}
	return encodeReport(prog, prog.Analyze(cfg), cfg)
}

// oracle checks a scaled-down instance of a workload's input without
// trusting any reference report: every analysis variant's constants
// must hold on an interpreter trace of the program, and the optimized
// program must print exactly what the original prints.
func oracle(files []progen.File, t *tally) error {
	ctx, _, err := frontEnd(files, nil, true)
	if err != nil {
		return err
	}
	run := interp.Run(ctx.Prog, interp.Options{TraceGlobalsAtCalls: true})
	if run.Err != nil {
		return fmt.Errorf("oracle: interpreter: %w", run.Err)
	}
	runs := analyzeAll(ctx, nil)
	for name, r := range map[string]*icp.Result{"fi": runs.fi, "fs": runs.fs,
		"fs+returns": runs.fsReturns, "fs+refresh": runs.fsRefresh, "iter": runs.iter} {
		bad := soundness.CheckICP(r, run.Trace)
		t.check(len(bad) == 0, "oracle: %s unsound: %v", name, bad)
	}
	if _, err := optimize(ctx, runs.fsReturns, nil); err != nil {
		return err
	}
	after := interp.Run(ctx.Prog, interp.Options{})
	t.check(after.Err == nil && after.Output == run.Output,
		"oracle: optimized program output differs (err %v)", after.Err)
	return nil
}
