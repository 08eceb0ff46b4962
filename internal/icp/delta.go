package icp

import (
	"fsicp/internal/lattice"
	"fsicp/internal/sem"
)

// This file holds the delta-propagation substrate of the fixpoint
// passes: change tracking that lets a round skip procedures whose
// inputs provably did not move since their last visit. Skipping is an
// optimisation only — every skip reproduces, byte for byte, the
// early-return the full evaluation would have taken — and
// Options.NoDeltaSkip disables it wholesale for A/B verification.

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
