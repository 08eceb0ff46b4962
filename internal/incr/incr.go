// Package incr is the incremental analysis engine: per-procedure reuse
// of flow-sensitive results across runs over edited versions of one
// program.
//
// The engine exploits the paper's central structural property: the
// flow-sensitive method runs exactly one SCC pass per procedure, and
// that pass reads only two things from the rest of the program: the
// procedure's own code and its entry environment. So a procedure's
// result is a pure function of
//
//	(analysis configuration, globals section, procedure key,
//	 entry environment)
//
// — the value context of Padhye & Khedker. The procedure key
// (ProcFingerprint) is the IR fingerprint plus, per call site, the
// callee's REF layout, which fixes the shape of the summary's site
// values. One rule follows, stated once by ProcSummary.Stands: a
// summary committed under the same key stands iff it was computed under
// the same entry environment (and liveness and back-edge count). Every
// procedure of an incremental run builds its entry environment exactly
// as a cold run does; one whose previous summary does not stand
// consults the value cache under (key, environment digest), and only
// then runs SCC.
//
// Summaries are "portable": they name variables by source name and
// globals by declaration index, never by pointer, so a summary cached
// from one parse of the program can be rebound against a later parse.
package incr

import (
	"fsicp/internal/lattice"
	"fsicp/internal/sem"
)

// SiteValues is the interprocedural view of one call site: whether the
// site is reachable under the caller's solution, and the lattice value
// of each actual and of each relevant program global at the call. Args
// and the global values are the raw (unfiltered) values; consumers
// apply any float-demotion filter themselves. All slices are nil when
// the site is unreachable (readers must treat the values as top,
// matching scc.Result.ArgValue on an unreachable site).
//
// Globals are stored sparsely: GlobIdx holds the declaration indices
// of the globals recorded for this site, ascending, and GlobVals their
// values, parallel. The recorded set is the transitive REF set of the
// site's callee — exactly the globals the callee's entry environment
// binds, so nothing a consumer reads is ever absent. Sparseness is
// safe across incremental reuse because the caller's procedure key
// covers each site's layout: a callee edit that changes which globals
// matter changes the key of every caller, so no summary recorded under
// an old layout is ever reused.
type SiteValues struct {
	Reachable bool
	Args      []lattice.Elem
	GlobIdx   []int32        // global declaration indices, ascending
	GlobVals  []lattice.Elem // parallel to GlobIdx
}

// Global returns the recorded value of the global with declaration
// index idx, or ⊥ when the site does not record it. Consumers only
// query globals in the callee's REF set, which are always recorded;
// the ⊥ default keeps an out-of-contract read sound (never reports a
// spurious constant).
func (sv *SiteValues) Global(idx int) lattice.Elem {
	g := sv.GlobIdx
	lo, hi := 0, len(g)
	for lo < hi {
		mid := (lo + hi) / 2
		if int(g[mid]) < idx {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(g) && int(g[lo]) == idx {
		return sv.GlobVals[lo]
	}
	return lattice.BottomElem()
}

// ProcSummary is everything downstream consumers need from one
// procedure's flow-sensitive pass: its liveness, how many back in-edges
// fell back to the flow-insensitive solution, its entry environment
// (variable name -> value, raw lattice values), and the per-call-site
// values in ir.Func.Calls order.
type ProcSummary struct {
	Dead      bool
	BackEdges int
	Entry     map[string]lattice.Elem
	Sites     []SiteValues

	// Degraded marks a summary served from the flow-insensitive
	// fallback after a panic, fuel exhaustion, or cancellation. A
	// degraded summary is sound but below full precision: it never
	// stands (Stands) and is never stored in the value cache, so the
	// next run recomputes the procedure at full precision.
	Degraded bool
}

// Stands is the engine's one reuse rule. It reports whether s, a
// summary computed for the same procedure key, is exactly what an SCC
// run under entry environment env would produce now: s exists, is not
// a degradation product, agrees on liveness and on the number of back
// in-edges that fell back to the flow-insensitive solution, and its
// Entry binds exactly env's variables, by name, to Eq elements. Eq is
// bit-exact for reals, so 0.0 and -0.0 never alias.
//
// Three traversals ask it: the incremental FS run (s is the previous
// summary under the same key), each round of the iterative method, and
// the returns refresh (s is the summary being refreshed).
func (s *ProcSummary) Stands(env lattice.Env[*sem.Var], live bool, backEdges int) bool {
	if s == nil || s.Degraded || s.Dead != !live || s.BackEdges != backEdges || len(s.Entry) != len(env) {
		return false
	}
	for v, e := range env {
		if old, ok := s.Entry[v.Name]; !ok || !old.Eq(e) {
			return false
		}
	}
	return true
}

// ProcState is one procedure's entry in a committed snapshot: the key
// it was analysed under and the summary a later run may reuse.
type ProcState struct {
	// FP is the procedure key (ProcFingerprint).
	FP string
	// Summary is the committed result.
	Summary *ProcSummary
}
