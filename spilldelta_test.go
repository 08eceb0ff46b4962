// Byte-determinism of the analysis-phase scaling machinery: the sparse
// global domain (each procedure tracks only the globals it can
// reference or modify), the sharded load, and the delta-propagation
// skips in the iterative and returns-refresh fixpoints are performance
// features, so their output must be indistinguishable from the dense,
// serial, skip-free paths — for every method, at every worker count.
// No representation spills any more: every per-procedure table is
// sized by the procedure itself.
package fsicp_test

import (
	"fmt"
	"strings"
	"testing"

	fsicp "fsicp"
)

// sevenMethods is the Config-method matrix: the three Methods, plus
// the §3.2 returns extension and the returns refresh pass for both
// flow-sensitive variants (the refresh is where the delta-skip
// substitution happens, so it must be in the matrix). The four
// jump-function baselines that complete the CLI's seven-method set
// are covered separately below — they take no worker or skip knobs.
func sevenMethods() []fsicp.Config {
	return []fsicp.Config{
		{Method: fsicp.FlowInsensitive, PropagateFloats: true},
		{Method: fsicp.FlowSensitive, PropagateFloats: true},
		{Method: fsicp.FlowSensitive, PropagateFloats: true, ReturnConstants: true},
		{Method: fsicp.FlowSensitive, PropagateFloats: true, ReturnConstants: true, ReturnsRefresh: true},
		{Method: fsicp.FlowSensitiveIterative, PropagateFloats: true},
		{Method: fsicp.FlowSensitiveIterative, PropagateFloats: true, ReturnConstants: true},
		{Method: fsicp.FlowSensitiveIterative, PropagateFloats: true, ReturnConstants: true, ReturnsRefresh: true},
	}
}

func cfgName(cfg fsicp.Config) string {
	n := cfg.Method.String()
	if cfg.ReturnConstants {
		n += "+returns"
	}
	if cfg.ReturnsRefresh {
		n += "+refresh"
	}
	return n
}

// TestSpillAndDeltaSkipDeterminism compares, on the 2k-procedure
// corpus, the baseline report (sparse global domain, delta skipping on,
// loaded with four workers, analyzed with one) against a second copy
// loaded with one worker (the spill0 legs, which keep the name of the
// bit-set spill they used to force), against the skip-free path
// (WithoutDeltaSkip makes every fixpoint round and refresh visit
// re-evaluate), each at workers 1, 2, 4, and 8, and against the dense
// global domain (every function tracking every program global). Any
// divergence means one of the fast paths is changing answers, not just
// time. Meant to run under -race (scripts/check.sh has a dedicated
// stage); it skips under -short to stay out of the quick suite.
func TestSpillAndDeltaSkipDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("2k-procedure corpus × 7 methods × 4 worker counts; skipped with -short")
	}
	files, _ := corpus2k()
	prog, err := fsicp.LoadFiles(asSourceFiles(files), fsicp.LoadOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	dense, err := fsicp.LoadFiles(asSourceFiles(files), fsicp.LoadOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	fsicp.TrackAllGlobals(dense)
	serial, err := fsicp.LoadFiles(asSourceFiles(files), fsicp.LoadOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range sevenMethods() {
		cfg := cfg
		t.Run(cfgName(cfg), func(t *testing.T) {
			base := cfg
			base.Workers = 1
			want := fingerprint(prog.Analyze(base))

			for _, workers := range []int{1, 2, 4, 8} {
				run := cfg
				run.Workers = workers

				t.Run(fmt.Sprintf("spill0/workers=%d", workers), func(t *testing.T) {
					if got := fingerprint(serial.Analyze(run)); got != want {
						t.Error("the serially loaded copy changed the report")
					}
				})

				t.Run(fmt.Sprintf("noskip/workers=%d", workers), func(t *testing.T) {
					if got := fingerprint(prog.Analyze(fsicp.WithoutDeltaSkip(run))); got != want {
						t.Error("disabling delta-propagation skips changed the report")
					}
				})
			}

			t.Run("dense-globals", func(t *testing.T) {
				run := cfg
				run.Workers = 4
				d := dense.Analyze(run)
				if got := fingerprint(d); got != want {
					t.Error("the dense global domain changed the report")
				}
				// Exit environments are not in the report, but the
				// refresh skip reads their size: an untracked global
				// must exit with exactly what a tracked one would.
				if exitFingerprint(fsicp.ResultOf(d)) != exitFingerprint(fsicp.ResultOf(prog.Analyze(run))) {
					t.Error("the dense global domain changed the exit environments")
				}
			})
		})
	}

	// The jump-function baselines have no worker fan-out and no
	// fixpoint skips, but their INTRA values come from the same SSA
	// over the same global domain — the sparse domain must be
	// invisible here too.
	for _, kind := range []fsicp.JumpFunctionKind{fsicp.Literal, fsicp.IntraConstant, fsicp.PassThrough, fsicp.Polynomial} {
		kind := kind
		t.Run("jump/"+kind.String(), func(t *testing.T) {
			want := jumpFingerprint(prog.AnalyzeJumpFunctions(kind))
			if got := jumpFingerprint(dense.AnalyzeJumpFunctions(kind)); got != want {
				t.Error("the dense global domain changed the baseline report")
			}
		})
	}
}

func jumpFingerprint(a *fsicp.JumpAnalysis) string {
	var b strings.Builder
	for _, c := range a.Constants() {
		fmt.Fprintf(&b, "const %s.%s = %s (%s)\n", c.Proc, c.Var, c.Value, c.Kind)
	}
	fmt.Fprintf(&b, "subs %d\n", a.Substitutions())
	return b.String()
}
