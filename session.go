package fsicp

import (
	"context"
	"fmt"
	"slices"

	"fsicp/internal/ast"
	"fsicp/internal/driver"
	"fsicp/internal/incr"
	"fsicp/internal/ir"
	"fsicp/internal/parser"
	"fsicp/internal/source"
)

// Session is an incremental analysis session over successive versions
// of one program. Where Load and Program.Analyze recompute everything
// from scratch, a Session carries three reuse layers across Update
// calls:
//
//   - Whole-version reuse: a version is keyed by its source's token
//     stream (SourceFingerprint), the complete input of the load
//     pipeline. An Update whose key equals the current version's — a
//     comment or whitespace edit, or an identical source — reuses the
//     compiled program whole, reparsing nothing.
//
//   - Per-procedure front-end reuse: an Update whose source has the
//     current version's skeleton — every token outside procedure
//     bodies and global initializers: the program header, each global
//     declaration, and each procedure header, in order — parses,
//     checks and lowers only the procedures whose body tokens changed,
//     parses and checks the global declarations again when an
//     initializer changed, takes every other procedure's syntax,
//     checked procedure and IR from the current version, and runs the
//     interprocedural passes (call graph, aliases, MOD/REF, clobbers)
//     over the whole program again. Any other Update is a full Load.
//     Either way the program is byte-identical to a cold Load of the
//     same source, and a failed Update changes nothing and reports
//     exactly the cold error. One lexer sweep of the source
//     (SweepSource) yields both the key and the split the patch reads.
//
//   - Per-procedure analysis caching (internal/incr.Engine): each
//     analysis configuration owns an engine whose snapshot and value
//     cache let the flow-sensitive methods keep a procedure's previous
//     result whenever its key (code plus callees' REF layouts) and its
//     entry environment are unchanged. A reused function keeps its key
//     without hashing it again while the interprocedural passes
//     annotate it as before (incr.ProcKey). The return-constant traversal
//     keeps such a procedure's return value, exit values and summary
//     too when, in addition, every call site's hooks answer exactly
//     as before: the callee's return value and the exit values the
//     call reads, or ⊥ for a callee not yet processed. Incremental
//     results are byte-identical to a cold analysis of the same
//     source (the differential property tests enforce this).
//
// Reused IR passes from one version to the next and is annotated
// again in place, so a successful Update retires every earlier
// version's Program: AnalyzeContext on it returns an error, and Analyze
// panics with it. Take the listings or reports of a version before the
// next Update; neither its Program nor its analyses read its IR as it
// was afterwards. A Session is not safe for concurrent use,
// and the destructive methods (Optimize, Clone, Inline,
// RemoveDeadProcedures) must not be applied to a Program still owned by
// a Session — they mutate state the next Update may reuse. Take a fresh
// Load for transformation work.
type Session struct {
	filename string
	opts     LoadOptions
	engines  map[Config]*incr.Engine
	version  int
	// sweep is the current version's source sweep: its token key, and
	// its split, which an Update with the same skeleton patches prog
	// by.
	sweep incr.Sweep
	prog  *Program // the current version
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

// Update replaces the program with a new source version and retires
// the one it replaces. A source whose token stream equals the current
// version's reuses its compiled program: the returned Program shares
// it, and its load records repeat the current ones marked Cached. A
// source with the current version's skeleton patches it: the parse,
// sem and irbuild rows note built=N reused=M, the procedures front-end
// work was done for and those taken over (built=0 when only global
// initializers changed). Any other source is loaded
// as LoadWith loads it. On error (a parse or semantic diagnostic) the
// session is untouched, so the error is exactly the one Load reports.
func (s *Session) Update(src string) (*Program, error) {
	return s.UpdateKeyed(src, SweepSource(src))
}

// UpdateKeyed is Update for a caller that already swept the source:
// sw must be SweepSource(src), and the source is not lexed again
// before its parse.
func (s *Session) UpdateKeyed(src string, sw SourceSweep) (*Program, error) {
	var next *Program
	if s.prog != nil && sw.sw.Key == s.sweep.Key {
		tr := driver.NewTrace()
		for _, st := range s.prog.trace.Passes() {
			st.Cached = true
			tr.Record(st)
		}
		next = &Program{ctx: s.prog.ctx, trace: tr}
	} else {
		sl := &sessionLoad{src: src, sweep: sw.sw}
		if s.prog != nil && s.sweep.SplitOK {
			sl.base, sl.baseSplit = s.prog, s.sweep.Split
		}
		p, err := sl.load(s.filename, s.opts)
		if err != nil && sl.patched {
			// A diagnostic abandons the patch before the current
			// version changed; the full load reports it exactly as a
			// cold Load does.
			sl.base = nil
			p, err = sl.load(s.filename, s.opts)
		}
		if err != nil {
			return nil, err
		}
		next = p
	}
	if s.prog != nil {
		s.prog.retired.Store(true)
	}
	s.sweep, s.prog = sw.sw, next
	s.version++
	return next, nil
}

// SourceSweep is one lexer sweep of a source text: its fingerprint,
// and the split of its token stream into the skeleton, the global
// initializers and the procedure bodies that a Session's update reads
// to decide what it reuses. A caller that needs the fingerprint before
// the update, as the daemon does, sweeps once and hands the sweep to
// Session.UpdateKeyed.
type SourceSweep struct{ sw incr.Sweep }

// SweepSource sweeps src once.
func SweepSource(src string) SourceSweep { return SourceSweep{incr.SweepSource(src)} }

// Fingerprint is SourceFingerprint of the swept source.
func (sw SourceSweep) Fingerprint() string { return sw.sw.Key }

// sessionLoad is a Session's part in the load of a new version: when
// the source's split has the current version's skeleton, the load's
// parse pass patches that version instead of loading afresh.
type sessionLoad struct {
	src       string
	sweep     incr.Sweep
	base      *Program // the version to patch; nil for a full load
	baseSplit incr.Split
	patched   bool // the load patched base
}

// load runs the load pipeline on the session's one source file.
func (sl *sessionLoad) load(filename string, opts LoadOptions) (*Program, error) {
	cf := corpusFile{name: filename, size: len(sl.src), read: func() (string, error) { return sl.src, nil }}
	return loadCorpus(context.Background(), []corpusFile{cf}, opts, sl)
}

// plan returns the patch of base when the source's skeleton matches
// its: the procedures whose bodies changed are parsed from f, the
// source's file, which holds the source until the patch's parse
// finishes, and so are the global declarations when an initializer
// changed.
func (sl *sessionLoad) plan(f *source.File) *procPatch {
	split := sl.sweep.Split
	if !sl.sweep.SplitOK || sl.base == nil || split.Skeleton != sl.baseSplit.Skeleton {
		return nil
	}
	if err := f.SetContent(sl.src); err != nil {
		return nil
	}
	pp := &procPatch{base: sl.base.ctx.Prog, spans: split.Procs, inits: split.Inits != sl.baseSplit.Inits}
	if pp.inits {
		pp.globals, pp.globalsNext = split.Globals, len(sl.src)
		if len(split.Procs) > 0 {
			pp.globalsNext = split.Procs[0].Start
		}
	}
	for i, sp := range split.Procs {
		if sp.Body != sl.baseSplit.Procs[i].Body {
			pp.changed = append(pp.changed, i)
		}
	}
	pp.decls = make([]*ast.ProcDecl, len(pp.changed))
	pp.errs = make([]error, len(pp.changed))
	sl.patched = true
	return pp
}

// procPatch is a load that patches a Session's current version: only
// the procedures at changed get new declarations, checks and
// functions (sem.Patch, irbuild.Patch), and every other procedure keeps
// the current version's. The global declarations are parsed again when
// an initializer changed (inits), and their initializers are checked
// again on every patch. The interprocedural passes then run over the
// whole program as in any load.
type procPatch struct {
	base    *ir.Program
	spans   []incr.ProcSpan
	changed []int
	decls   []*ast.ProcDecl // per changed procedure
	errs    []error

	// inits marks a patch whose initializers changed: the global
	// declarations from byte offset globals to globalsNext are parsed
	// again.
	inits                bool
	globals, globalsNext int
}

// parse parses the k-th changed procedure from f with the parser's
// per-declaration code. A declaration that does not end where its body
// does is an error like a diagnostic.
func (pp *procPatch) parse(k int, f *source.File, fset *source.FileSet) {
	sp := pp.spans[pp.changed[k]]
	d, next, err := parser.ParseProc(f, fset, sp.Start)
	if err == nil && next != sp.Next {
		err = fmt.Errorf("procedure at offset %d does not end where its body does", sp.Start)
	}
	pp.decls[k], pp.errs[k] = d, err
}

// finish parses the global declarations again when an initializer
// changed, releases f's contents and returns the new version's syntax:
// the current version's, with the changed procedures' declarations in
// place of theirs, and the new global declarations in place of its
// when they were parsed. Global declarations that do not end where
// the first procedure starts are an error like a diagnostic.
func (pp *procPatch) finish(f *source.File, fset *source.FileSet) (*ast.Program, error) {
	cur := pp.base.Sem.AST
	globals := cur.Globals
	if pp.inits {
		var next int
		var err error
		globals, next, err = parser.ParseGlobals(f, fset, pp.globals)
		if err == nil && next != pp.globalsNext {
			err = fmt.Errorf("global declarations at offset %d do not end where the procedures start", pp.globals)
		}
		pp.errs = append(pp.errs, err)
	}
	f.ReleaseContent()
	for _, err := range pp.errs {
		if err != nil {
			return nil, err
		}
	}
	prog := &ast.Program{NamePos: cur.NamePos, Name: cur.Name, Globals: globals, Procs: slices.Clone(cur.Procs)}
	for k, i := range pp.changed {
		prog.Procs[i] = pp.decls[k]
	}
	return prog, nil
}

// notes is the front-end rows' note on a patch.
func (pp *procPatch) notes() string {
	return fmt.Sprintf("built=%d reused=%d", len(pp.changed), len(pp.base.Funcs)-len(pp.changed))
}

// SourceKey returns the token-stream fingerprint of the session's
// current version — the same value SourceFingerprint(src) yields for
// the source it was built from. The daemon's session pool compares it
// against an incoming request's fingerprint to skip Update, and its
// version bump, when the program is unchanged.
func (s *Session) SourceKey() string { return s.sweep.Key }

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
