package fsicp_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	fsicp "fsicp"
	"fsicp/internal/progen"
	"fsicp/internal/report"
)

// TestOptimizeOutputPinned pins what the optimizer makes of a
// multi-module corpus shaped like the cold-compile benchmark's (a
// recursion ring at each module head, block data, floats), scaled to
// 12 × 96 procedures: the SHA-256 of the optimized IR dump and of the
// `-returns -optimize -json` report, at workers 1 and 2. A change to
// the optimizer's bookkeeping must leave both digests as they are.
func TestOptimizeOutputPinned(t *testing.T) {
	const (
		wantIR     = "687b3e7e9748ff39c43c5f7367918dcd19809ff7cc5da91a989c7137cba9f53d"
		wantReport = "13111182923859bc81590bf733e7b8ec8f0acd2326206cdbff1b1cd02ecf9b7f"
	)
	files, _ := progen.GenerateModules(progen.ModuleConfig{
		Seed: 1, Modules: 12, ProcsPerModule: 96, Globals: 8,
		BlockData: 16, SCCSize: 4, FanOut: 8, MaxStmts: 4, AllowFloats: true,
	})
	for _, workers := range []int{1, 2} {
		prog, err := fsicp.LoadFiles(asSourceFiles(files), fsicp.LoadOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		cfg := fsicp.Config{Method: fsicp.FlowSensitive, PropagateFloats: true, ReturnConstants: true, Workers: workers}
		a := prog.Analyze(cfg)
		rep := report.Build(prog, a, cfg)
		opt, err := a.Optimize(fsicp.AllOptimizations())
		if err != nil {
			t.Fatal(err)
		}
		rep.Optimize = &opt
		enc, err := rep.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if got := digest(enc); got != wantReport {
			t.Errorf("workers %d: report digest %s, want %s", workers, got, wantReport)
		}
		if got := digest([]byte(prog.DumpIR())); got != wantIR {
			t.Errorf("workers %d: optimized IR digest %s, want %s", workers, got, wantIR)
		}
	}
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
