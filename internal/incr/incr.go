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
//	(analysis configuration, globals layout, procedure key,
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
// The returns traversal (§3.2) reuses by the same rule, extended by
// what its second SCC run reads besides: the call hooks. A procedure
// whose summary stood keeps its committed ReturnsRecord iff every call
// site's hooks answer as they did when the record was computed
// (ReturnsRecord.Stands). Returns records live in the snapshot only,
// never in the value cache.
//
// Summaries are "portable": they hold environments as frames, one
// value per formal by position and then per global of the procedure's
// segment in declaration order (ir.Func.FrameSlot), and name globals
// elsewhere by declaration index, never by pointer, so a summary cached
// from one parse of the program can be read against a later parse. The
// procedure key covers the segment and the program key the globals'
// declaration order, so equal keys mean equal frame layouts.
package incr

import "fsicp/internal/lattice"

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

// ProcSummary is everything downstream consumers need from one
// procedure's flow-sensitive pass: its liveness, how many back in-edges
// fell back to the flow-insensitive solution, the entry frame its SCC
// run was seeded with (raw lattice values), and the per-call-site
// values in ir.Func.Calls order.
type ProcSummary struct {
	Dead      bool
	BackEdges int
	Entry     []lattice.Elem
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
// run under entry frame env would produce now: s exists, is not a
// degradation product, agrees on liveness and on the number of back
// in-edges that fell back to the flow-insensitive solution, and its
// Entry holds an Eq element in every slot of env. Eq is bit-exact for
// reals, so 0.0 and -0.0 never alias.
//
// Three traversals ask it: the incremental FS run (s is the previous
// summary under the same key), each round of the iterative method, and
// the returns refresh (s is the summary being refreshed).
func (s *ProcSummary) Stands(env []lattice.Elem, live bool, backEdges int) bool {
	if s == nil || s.Degraded || s.Dead != !live || s.BackEdges != backEdges || len(s.Entry) != len(env) {
		return false
	}
	for i, e := range env {
		if !s.Entry[i].Eq(e) {
			return false
		}
	}
	return true
}

// CallAnswer is what one call site's hooks answered during the returns
// traversal: the result hook's answer, and the exit hook's answer for
// each variable the call may define, in the call's MayDef order. A
// callee the reverse traversal had not yet completed (a back edge)
// answers ⊥ throughout; a completed one answers from its return value
// and exit environment, filtered, as its MOD set and the call's
// by-reference bindings select them. The answers, not the callee's
// summary, are stored because they are exactly what the SCC run read:
// equal procedure keys do not even imply equal edge kinds (back edges
// come from a DFS of the whole call graph, so an edit elsewhere can
// turn an unchanged caller's forward edge into a back edge), and a
// callee change the hooks do not pass on must not cost the caller its
// record.
type CallAnswer struct {
	Result lattice.Elem
	Exit   []lattice.Elem
}

// ReturnsRecord is one procedure's result from the returns traversal
// (§3.2): its raw return value, its exit frame (the constant exit
// value of each formal and segment global, ⊥ elsewhere, in the entry
// frame's layout), whether it can return at all, the summary
// re-derived from that traversal's fixpoint, and the answers its call
// sites received, in ir.Func.Calls order.
type ReturnsRecord struct {
	Return    lattice.Elem
	Exit      []lattice.Elem
	CanReturn bool
	Summary   *ProcSummary
	Calls     []CallAnswer
}

// Stands is the returns-stage reuse rule, asked only for a procedure
// whose FS-stage summary stood (same key, entry environment, liveness
// and back-edge count). Its second SCC run reads nothing else but the
// call hooks, so r is exactly what the run would produce now iff every
// call site's hooks answer, bit-exactly, what they answered when r was
// computed. result(k) and exit(k, j) report call site k's answers now:
// its result hook's, and its exit hook's for the j-th variable the
// call may define. The procedure key fixes the call sites and their
// MayDef lists.
func (r *ReturnsRecord) Stands(result func(k int) lattice.Elem, exit func(k, j int) lattice.Elem) bool {
	if r == nil {
		return false
	}
	for k, a := range r.Calls {
		if !a.Result.Eq(result(k)) {
			return false
		}
		for j, e := range a.Exit {
			if !e.Eq(exit(k, j)) {
				return false
			}
		}
	}
	return true
}

// ProcState is one procedure's entry in a committed snapshot: the key
// it was analysed under and the results a later run may reuse.
type ProcState struct {
	// FP is the procedure key (ProcFingerprint).
	FP string
	// Summary is the committed FS-stage result.
	Summary *ProcSummary
	// Returns is the committed returns-stage result: nil when the run
	// had no returns traversal, or the procedure was dead or degraded
	// in it.
	Returns *ReturnsRecord
}
