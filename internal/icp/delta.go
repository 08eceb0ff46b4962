package icp

import (
	"os"

	"fsicp/internal/lattice"
	"fsicp/internal/sem"
)

// This file holds the delta-propagation substrate of the fixpoint
// passes: change tracking that lets a round skip procedures whose
// inputs provably did not move since their last visit. Skipping is an
// optimisation only — every skip reproduces, byte for byte, the
// early-return the full evaluation would have taken — and it can be
// disabled wholesale for A/B verification.

// deltaSkipEnabled reports whether the fixpoint passes may skip
// re-evaluating procedures whose inputs did not change. Setting
// FSICP_NO_DELTA_SKIP to any non-empty value forces every visit to run
// the full evaluation — the knob the byte-identity tests flip to prove
// the skipped work was genuinely redundant. Read once per analysis run.
func deltaSkipEnabled() bool {
	return os.Getenv("FSICP_NO_DELTA_SKIP") == ""
}

// envEq reports whether two environments bind the same keys to Eq
// elements. Eq is bit-exact for reals (val.Value.Equal), so 0.0 and
// -0.0 — rendered differently in reports — never compare equal, and a
// skip that substitutes an old result for a re-run stays byte-identical.
func envEq(a, b lattice.Env[*sem.Var]) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		w, ok := b[k]
		if !ok || !v.Eq(w) {
			return false
		}
	}
	return true
}
