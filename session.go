package fsicp

import (
	"context"
	"fmt"

	"fsicp/internal/driver"
	"fsicp/internal/incr"
)

// Session is an incremental analysis session over successive versions
// of one program. Where Load and Program.Analyze recompute everything
// from scratch, a Session carries two reuse layers across Update
// calls:
//
//   - Whole-version reuse: a version is keyed by its source's token
//     stream (SourceFingerprint), the complete input of the load
//     pipeline. An Update whose key equals the current version's — a
//     comment or whitespace edit, or an identical source — reuses the
//     compiled program whole, reparsing nothing; any other Update is a
//     full Load. A failed Update changes nothing.
//
//   - Per-procedure analysis caching (internal/incr.Engine): each
//     analysis configuration owns an engine whose snapshot and value
//     cache let the flow-sensitive methods keep a procedure's previous
//     result whenever its key (code plus callees' REF layouts) and its
//     entry environment are unchanged. The return-constant traversal
//     keeps such a procedure's return value, exit values and summary
//     too when, in addition, every call site's hooks answer exactly
//     as before: the callee's return value and the exit values the
//     call reads, or ⊥ for a callee not yet processed. Incremental
//     results are byte-identical to a cold analysis of the same
//     source (the differential property tests enforce this).
//
// A Session is not safe for concurrent use, and the destructive
// methods (Optimize, Clone, Inline, RemoveDeadProcedures) must not be
// applied to a Program still owned by a Session — they mutate state
// the next Update may reuse. Take a fresh Load for transformation work.
type Session struct {
	filename string
	opts     LoadOptions
	engines  map[Config]*incr.Engine
	version  int
	key      string   // token key of the current version's source
	prog     *Program // the current version
}

// NewSession loads the initial version of the program. The error is
// the same Load would report.
func NewSession(filename, src string) (*Session, error) {
	return NewSessionWith(filename, src, LoadOptions{})
}

// NewSessionWith is NewSession with load options; every Update runs
// its sharded load passes under opts.Workers.
func NewSessionWith(filename, src string, opts LoadOptions) (*Session, error) {
	s := &Session{filename: filename, opts: opts, engines: make(map[Config]*incr.Engine)}
	if _, err := s.Update(src); err != nil {
		return nil, err
	}
	return s, nil
}

// Program returns the current version's loaded program.
func (s *Session) Program() *Program { return s.prog }

// Version counts successful Updates (1 after NewSession).
func (s *Session) Version() int { return s.version }

// Update replaces the program with a new source version. A source whose
// token stream equals the current version's reuses its compiled
// program: the returned Program shares it, and its load records repeat
// the current ones marked Cached. Any other source is loaded with
// LoadWith. On error (a parse or semantic diagnostic) the session is
// untouched, so the error is exactly the one Load reports.
func (s *Session) Update(src string) (*Program, error) {
	return s.UpdateKeyed(src, SourceFingerprint(src))
}

// UpdateKeyed is Update for a caller that already holds key, which
// must be SourceFingerprint(src): the source is not lexed a second time
// to compute it.
func (s *Session) UpdateKeyed(src, key string) (*Program, error) {
	var next *Program
	if s.prog != nil && key == s.key {
		tr := driver.NewTrace()
		for _, st := range s.prog.trace.Passes() {
			st.Cached = true
			tr.Record(st)
		}
		next = &Program{ctx: s.prog.ctx, trace: tr}
	} else {
		p, err := LoadWith(s.filename, src, s.opts)
		if err != nil {
			return nil, err
		}
		next = p
	}
	s.key, s.prog = key, next
	s.version++
	return next, nil
}

// SourceKey returns the token-stream fingerprint of the session's
// current version — the same value SourceFingerprint(src) yields for
// the source it was built from. The daemon's session pool compares it
// against an incoming request's fingerprint to skip Update, and its
// version bump, when the program is unchanged.
func (s *Session) SourceKey() string { return s.key }

// Analyze runs the selected ICP method on the current version with
// the session's incremental engine for that configuration attached:
// only procedures affected by the edits since the configuration's
// last Analyze are re-analysed. Results are byte-identical to
// Program.Analyze on the same source. Analysis.Incremental reports
// how much was reused.
func (s *Session) Analyze(cfg Config) *Analysis {
	a, err := s.AnalyzeContext(context.Background(), cfg)
	if err != nil {
		panic(err)
	}
	return a
}

// AnalyzeContext is Session.Analyze under a context, with the same
// degradation semantics as Program.AnalyzeContext: cancellation and
// deadline expiry degrade unfinished procedures to the
// flow-insensitive solution instead of failing. The session stays
// usable afterwards — degraded procedures are never cached, so a later
// Analyze with a live context recomputes them at full precision.
func (s *Session) AnalyzeContext(ctx context.Context, cfg Config) (*Analysis, error) {
	// Engines are keyed by the configuration minus its deadline (see
	// Config.engineKey): per-request timeouts — the daemon's normal
	// traffic — must share cached facts, not multiply engines.
	key := cfg.engineKey()
	eng := s.engines[key]
	if eng == nil {
		// Memory-only by default; layered over the shared persistent
		// store when the config names a cache directory.
		eng = newEngine(cfg, nil)
		s.engines[key] = eng
	}
	return s.prog.analyze(ctx, cfg, eng)
}

// Incremental reports the reuse achieved by a Session.Analyze run:
// procedures whose previous summary stood because their key and entry
// environment were unchanged, and value-cache hits and misses among
// the others. All zero for a cold (Program.Analyze) run.
func (a *Analysis) Incremental() (procsReused, cacheHits, cacheMisses int) {
	return a.res.ProcsReused, a.res.CacheHits, a.res.CacheMisses
}

// ConstantDelta is one difference between two Constants listings.
type ConstantDelta struct {
	// Op is "+" (added), "-" (removed), or "~" (value changed).
	Op string
	Constant
	// OldValue is the previous value when Op is "~".
	OldValue string
}

// DiffConstants compares two Constants listings (as returned by
// Analysis.Constants) and returns the differences: changes and
// additions in after's order, then removals in before's order.
// cmd/fsicp's -watch mode prints these between versions.
func DiffConstants(before, after []Constant) []ConstantDelta {
	type key struct{ proc, v string }
	prev := make(map[key]Constant, len(before))
	for _, c := range before {
		prev[key{c.Proc, c.Var}] = c
	}
	var out []ConstantDelta
	for _, c := range after {
		k := key{c.Proc, c.Var}
		if old, ok := prev[k]; !ok {
			out = append(out, ConstantDelta{Op: "+", Constant: c})
		} else if old.Value != c.Value {
			out = append(out, ConstantDelta{Op: "~", Constant: c, OldValue: old.Value})
		}
		delete(prev, k)
	}
	for _, c := range before {
		if _, gone := prev[key{c.Proc, c.Var}]; gone {
			out = append(out, ConstantDelta{Op: "-", Constant: c})
		}
	}
	return out
}

// EliminationDelta is one difference between two Eliminations listings.
type EliminationDelta struct {
	// Op is "+" (procedure gained eliminations), "-" (lost all of
	// them), or "~" (counts changed).
	Op string
	ProcElimination
	// OldInstrs/OldBranches are the previous counts when Op is "~".
	OldInstrs   int
	OldBranches int
}

// DiffEliminations compares two Eliminations listings (as returned by
// Analysis.Eliminations) and returns the differences: changes and
// additions in after's order, then removals in before's order.
// cmd/fsicp's -watch mode prints these between versions, next to the
// constant deltas.
func DiffEliminations(before, after []ProcElimination) []EliminationDelta {
	prev := make(map[string]ProcElimination, len(before))
	for _, e := range before {
		prev[e.Proc] = e
	}
	var out []EliminationDelta
	for _, e := range after {
		if old, ok := prev[e.Proc]; !ok {
			out = append(out, EliminationDelta{Op: "+", ProcElimination: e})
		} else if old.Instrs != e.Instrs || old.Branches != e.Branches {
			out = append(out, EliminationDelta{Op: "~", ProcElimination: e,
				OldInstrs: old.Instrs, OldBranches: old.Branches})
		}
		delete(prev, e.Proc)
	}
	for _, e := range before {
		if _, gone := prev[e.Proc]; gone {
			out = append(out, EliminationDelta{Op: "-", ProcElimination: e})
		}
	}
	return out
}

// String renders a delta as one line, e.g.
// "+ sub1: 3 instrs, 1 branches eliminable" or
// "~ main: 2 instrs, 0 branches eliminable (was 4, 1)".
func (d EliminationDelta) String() string {
	s := fmt.Sprintf("%s %s: %d instrs, %d branches eliminable",
		d.Op, d.Proc, d.Instrs, d.Branches)
	if d.Op == "~" {
		s += fmt.Sprintf(" (was %d, %d)", d.OldInstrs, d.OldBranches)
	}
	return s
}

// String renders a delta as one line, e.g. "+ p2.a0 = 7" or
// "~ main.g1 = 3 (was 2)".
func (d ConstantDelta) String() string {
	s := fmt.Sprintf("%s %s.%s = %s", d.Op, d.Proc, d.Var, d.Value)
	if d.Op == "~" {
		s += fmt.Sprintf(" (was %s)", d.OldValue)
	}
	return s
}
