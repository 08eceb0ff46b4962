// Package fsicp is a from-scratch reproduction of
//
//	Carini & Hind, "Flow-Sensitive Interprocedural Constant
//	Propagation", PLDI 1995 (doi:10.1145/207110.207113)
//
// as a reusable Go library. It contains a complete compiler mid-end for
// MiniFort — a small Fortran-flavoured language with by-reference
// parameters and program-wide globals — and, on top of it, the paper's
// two interprocedural constant propagation (ICP) algorithms, the
// jump-function baselines they are compared against, the paper's
// metrics, a reference interpreter used as a soundness oracle, and the
// synthetic SPEC-shaped benchmark suite that regenerates the paper's
// tables.
//
// # Quick start
//
//	prog, err := fsicp.Load("demo.mf", source)
//	if err != nil { ... }
//	a := prog.Analyze(fsicp.Config{Method: fsicp.FlowSensitive, PropagateFloats: true})
//	for _, c := range a.Constants() {
//	    fmt.Printf("%s: %s = %s (%s)\n", c.Proc, c.Var, c.Value, c.Kind)
//	}
//
// The facade in this package is self-contained; the analysis machinery
// lives in internal packages (internal/icp holds the paper's
// algorithms, internal/scc the Wegman–Zadeck engine, internal/jumpfunc
// the baselines, internal/bench the table harness).
package fsicp

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fsicp/internal/alias"
	"fsicp/internal/ast"
	"fsicp/internal/callgraph"
	"fsicp/internal/clone"
	"fsicp/internal/driver"
	"fsicp/internal/faultinject"
	"fsicp/internal/icp"
	"fsicp/internal/incr"
	"fsicp/internal/inline"
	"fsicp/internal/interp"
	"fsicp/internal/ir"
	"fsicp/internal/irbuild"
	"fsicp/internal/jumpfunc"
	"fsicp/internal/lattice"
	"fsicp/internal/metrics"
	"fsicp/internal/modref"
	"fsicp/internal/parser"
	"fsicp/internal/progen"
	"fsicp/internal/resilience"
	"fsicp/internal/sem"
	"fsicp/internal/source"
	"fsicp/internal/store"
	"fsicp/internal/transform"
	"fsicp/internal/val"
)

// Method selects an interprocedural constant propagation algorithm.
type Method = icp.Method

// The three ICP methods; icp.Method documents each.
const (
	// FlowInsensitive is the paper's Figure 3 algorithm.
	FlowInsensitive Method = icp.FlowInsensitive
	// FlowSensitive is the paper's Figure 4 algorithm.
	FlowSensitive Method = icp.FlowSensitive
	// FlowSensitiveIterative re-analyses procedures until a global
	// fixpoint.
	FlowSensitiveIterative Method = icp.FlowSensitiveIterative
)

// Config selects and configures an analysis.
type Config struct {
	Method Method
	// PropagateFloats enables interprocedural propagation of
	// floating-point constants (on in the paper's Tables 1–2, off in
	// Tables 3–5).
	PropagateFloats bool
	// ReturnConstants enables the paper's §3.2 extension: one extra
	// reverse traversal computing returned constants (function results
	// and exit values of by-reference formals and globals).
	ReturnConstants bool
	// ReturnsRefresh (with ReturnConstants) adds one more forward
	// traversal that feeds the return/exit summaries back into entry
	// environments — constants flowing out of one callee and into a
	// sibling's entry become visible.
	ReturnsRefresh bool
	// Workers bounds the number of procedures the flow-sensitive
	// methods analyse concurrently (0 means GOMAXPROCS); a procedure
	// starts once its forward-edge callers have finished. Analysis
	// results are byte-identical for every worker count.
	Workers int

	// CacheDir, when non-empty, backs the incremental engine's value
	// cache with a persistent on-disk store rooted at this directory,
	// so a cold process whose program and configuration match an
	// earlier run starts warm. The cache affects time only, never
	// results: reports are byte-identical with a cold, warm, or even
	// corrupted cache (invalid entries are dropped and recomputed; see
	// Analysis.CacheStats). One store handle is shared per directory
	// within the process. An unusable directory disables the disk
	// layer rather than failing the analysis.
	CacheDir string

	// Timeout bounds the analysis wall-clock time. When it expires the
	// run does not fail: procedures that have not finished their
	// flow-sensitive analysis degrade to the (sound) flow-insensitive
	// solution, and the affected procedures are listed in
	// Analysis.Degradations. 0 means no deadline.
	Timeout time.Duration

	// Fuel bounds the propagation steps each per-procedure
	// flow-sensitive analysis may take; a procedure exhausting its
	// budget degrades to the flow-insensitive solution. The bound is
	// deterministic: the same program and fuel degrade the same
	// procedures at every worker count. 0 means unlimited.
	Fuel int

	// Faults injects deterministic faults (panics, latency stalls,
	// simulated fuel exhaustion) into the analysis passes and
	// per-procedure workers — the testing harness for the resilience
	// layer. The zero FaultSpec injects nothing.
	Faults FaultSpec

	// noDeltaSkip selects the skip-free reference path of the fixpoint
	// passes (icp.Options.NoDeltaSkip); only tests set it.
	noDeltaSkip bool
}

// ShedToFI returns the configuration's cheap, sound fallback: the same
// options with the flow-insensitive method selected. The paper's
// two-solution structure makes this the natural load-shedding answer —
// the FI solution is sound for every procedure (it is already the
// fallback for call-graph back edges and for degraded procedures), it
// costs a small fraction of the flow-sensitive traversal, and it never
// requires iteration. The daemon (internal/serve) answers with it when
// over its load watermark instead of queueing or dropping the request.
func (c Config) ShedToFI() Config {
	c.Method = FlowInsensitive
	return c
}

// engineKey normalises a configuration to the identity of its
// incremental engine. Timeout is excluded: a deadline changes which
// procedures finish, never the facts committed for the ones that do
// (degraded summaries are never cached), so sessions serving
// per-request deadlines — the daemon's whole traffic — share one
// engine instead of leaking one per distinct timeout value. Fuel and
// Faults stay in the key at this level for snapshot locality; the
// store-level cache keys carry them regardless.
func (c Config) engineKey() Config {
	c.Timeout = 0
	return c
}

// FaultSpec configures deterministic, seeded fault injection (see
// internal/faultinject). The zero FaultSpec injects nothing.
type FaultSpec = faultinject.Spec

// Degradation reports one procedure (or whole pass, when Proc is
// empty) that fell back to the flow-insensitive solution instead of
// completing its flow-sensitive analysis. Degraded results stay sound;
// they only lose precision.
type Degradation = resilience.Degradation

// JumpFunctionKind selects a baseline jump-function implementation.
type JumpFunctionKind = jumpfunc.Kind

// The four jump-function baselines; jumpfunc.Kind documents each.
const (
	Literal       JumpFunctionKind = jumpfunc.Literal
	IntraConstant JumpFunctionKind = jumpfunc.Intra
	PassThrough   JumpFunctionKind = jumpfunc.PassThrough
	Polynomial    JumpFunctionKind = jumpfunc.Polynomial
)

// Program is a loaded, checked, lowered MiniFort program with its
// interprocedural context (call graph, aliases, MOD/REF) prepared.
//
// A Program may be analysed from multiple goroutines concurrently:
// Analyze, AnalyzeJumpFunctions, and the read-only accessors never
// mutate the program. Optimize, Clone, Inline, and RemoveDeadProcedures
// DO mutate the program in place and must not race with any other use
// of it.
type Program struct {
	ctx   *icp.Context
	trace *driver.Trace // load-pipeline pass records
	// retired marks a version a later Session.Update replaced; see
	// Session.
	retired atomic.Bool
}

// LoadOptions configures the load pipeline.
type LoadOptions struct {
	// Workers bounds the fan-out of the sharded load passes —
	// parsing, per-procedure lowering, alias partner lists, MOD/REF
	// collection and clobber insertion (0 means GOMAXPROCS). The loaded
	// program is byte-identical for every worker count; only
	// wall-clock time changes. SSA is not built at load: each analysis
	// builds a procedure's SSA the first time it reads it.
	Workers int
}

// Load parses, checks, and lowers MiniFort source text, then runs the
// pre-ICP interprocedural phases (call graph, reference-parameter
// aliases, MOD/REF). Errors carry positions and one line per
// diagnostic.
//
// The pipeline runs as named passes under the pass manager
// (internal/driver); the per-pass timings are carried into every
// Analysis and reported by Analysis.Stats.
func Load(filename, src string) (*Program, error) {
	return LoadWith(filename, src, LoadOptions{})
}

// LoadWith is Load with options.
func LoadWith(filename, src string, opts LoadOptions) (*Program, error) {
	return LoadContext(context.Background(), filename, src, opts)
}

// LoadContext is LoadWith under a context: when ctx ends, in-flight
// sharded passes stop claiming work, their goroutines drain, and the
// load fails with the context's error. A single source is a one-file
// corpus: it runs the same pipeline as LoadFiles.
func LoadContext(ctx context.Context, filename, src string, opts LoadOptions) (*Program, error) {
	return LoadFilesContext(ctx, []SourceFile{{Name: filename, Src: src}}, opts)
}

// SourceFile is one file of a multi-file corpus handed to LoadFiles:
// a display name (used in diagnostics) plus its contents.
type SourceFile struct {
	Name string
	Src  string
}

// LoadFiles loads a multi-file corpus: exactly one file with a
// "program" header plus any number of "module" files contributing
// globals and procedures to the same namespace. Files parse
// concurrently (one shard per file, bounded by LoadOptions.Workers)
// against per-file buffers — the corpus is never concatenated into one
// string — and the parsed units merge in the order given, so the loaded
// program is byte-identical for every worker count. Diagnostics carry
// the owning file's name and position.
func LoadFiles(files []SourceFile, opts LoadOptions) (*Program, error) {
	return LoadFilesContext(context.Background(), files, opts)
}

// LoadFilesContext is LoadFiles under a context.
func LoadFilesContext(ctx context.Context, files []SourceFile, opts LoadOptions) (*Program, error) {
	cfs := make([]corpusFile, len(files))
	for i, sf := range files {
		sf := sf
		cfs[i] = corpusFile{name: sf.Name, size: len(sf.Src), read: func() (string, error) { return sf.Src, nil }}
	}
	return loadCorpus(ctx, cfs, opts, nil)
}

// corpusFile describes one file of a corpus to the streaming loader:
// a display name, the content length in bytes (known up front, from
// the caller's buffer or a stat), and a reader that produces the
// contents on demand. Sizes let the loader lay out the corpus's whole
// Pos space before any contents exist; readers let it hold at most
// one file's contents per parse worker.
type corpusFile struct {
	name string
	size int
	read func() (string, error)
}

// loadCorpus is the load pipeline behind every entry point (Load,
// LoadFiles, LoadDir and their variants): parse, sem, irbuild,
// callgraph, alias, modref and clobbers, run in that order by the pass
// manager. It builds no SSA: an analysis builds a procedure's SSA on
// first use (icp.Context.SSA). Each parse shard reads its file,
// attaches the contents to the pre-sized source.File, parses, and
// releases the contents — so at most LoadOptions.Workers file contents
// are resident at once and the corpus is never materialized wholesale
// (the lexer copies the literal spellings it keeps, so nothing pins a
// released buffer). The peak resident source-byte count is reported as
// "src-peak=" in the parse pass's stats row.
//
// A Session's load (sess non-nil) may patch its current version
// instead; see sessionLoad.
func loadCorpus(ctx context.Context, files []corpusFile, opts LoadOptions, sess *sessionLoad) (*Program, error) {
	if len(files) == 0 {
		return nil, fmt.Errorf("fsicp: no source files")
	}
	fset := source.NewFileSet()
	sfiles := make([]*source.File, len(files))
	for i, cf := range files {
		sfiles[i] = fset.AddSized(cf.name, cf.size)
	}
	var (
		astProg *ast.Program
		semProg *sem.Program
		irProg  *ir.Program
		cg      *callgraph.Graph
		al      *alias.Info
		mr      *modref.Info
		sc      *sem.Checker
		pb      *irbuild.Builder
		mb      *modref.Builder
	)
	units := make([]*ast.Program, len(files))
	perrs := make([]error, len(files))
	var parseFailed atomic.Bool
	var srcCur, srcPeak atomic.Int64
	// parseFile is the full parse's shard: one per file. A failed file
	// flips parseFailed so shards that have not started yet return
	// immediately — the load is already doomed, and skipping their
	// read+parse bounds the wasted work on large corpora. Finish then
	// aggregates the recorded diagnostics in file order; an errored
	// load constructs no Program, so no partially filled tables survive.
	parseFile := func(i int) {
		if parseFailed.Load() {
			return
		}
		src, err := files[i].read()
		if err != nil {
			perrs[i] = err
			parseFailed.Store(true)
			return
		}
		cur := srcCur.Add(int64(len(src)))
		for {
			p := srcPeak.Load()
			if cur <= p || srcPeak.CompareAndSwap(p, cur) {
				break
			}
		}
		f := sfiles[i]
		if err := f.SetContent(src); err != nil {
			srcCur.Add(-int64(len(src)))
			perrs[i] = err
			parseFailed.Store(true)
			return
		}
		u, err := parser.ParseUnit(f, fset)
		f.ReleaseContent()
		srcCur.Add(-int64(len(src)))
		if err != nil {
			perrs[i] = err
			parseFailed.Store(true)
			return
		}
		units[i] = u
	}
	// patch holds the changed procedures' new declarations when the
	// load patches a Session's current version.
	var patch *procPatch
	m := driver.NewManager()
	m.SetWorkers(opts.Workers)
	m.Add(driver.Pass{Name: "parse",
		Run: func(st *driver.PassStats) error {
			if sess != nil {
				patch = sess.plan(sfiles[0])
			}
			return nil
		},
		Shards: func(workers int) (int, func(int)) {
			if patch != nil {
				return len(patch.changed), func(k int) { patch.parse(k, sfiles[0], fset) }
			}
			return len(sfiles), parseFile
		},
		Finish: func(st *driver.PassStats) error {
			if patch != nil {
				var err error
				astProg, err = patch.finish(sfiles[0], fset)
				st.Procs = len(patch.changed)
				st.Notes = patch.notes()
				return err
			}
			errs := &source.ErrorList{File: fset}
			for _, err := range perrs {
				var el *source.ErrorList
				if errors.As(err, &el) {
					errs.Diags = append(errs.Diags, el.Diags...)
				} else if err != nil {
					return err
				}
			}
			if err := errs.Err(); err != nil {
				return err
			}
			roots := 0
			for _, u := range units {
				if u != nil && !u.IsModule {
					roots++
					if roots > 1 {
						errs.Errorf(u.NamePos, "corpus has more than one 'program' unit (%q)", u.Name)
					}
				}
			}
			if roots == 0 {
				errs.Errorf(units[0].NamePos, "corpus has no 'program' unit (%d module files)", len(units))
			}
			if err := errs.Err(); err != nil {
				return err
			}
			astProg = ast.MergeUnits(units)
			st.Procs = len(astProg.Procs)
			st.Notes = fmt.Sprintf("%d files src-peak=%d", len(units), srcPeak.Load())
			return nil
		}})
	// Each procedure checks in its own shard, after the serial
	// declaration of every global and procedure; Finish checks main and
	// lists the diagnostics in procedure order.
	m.Add(driver.Pass{Name: "sem",
		Run: func(st *driver.PassStats) error {
			if patch != nil {
				sc = sem.Patch(patch.base.Sem, astProg, patch.changed, fset)
				st.Notes = patch.notes()
			} else {
				sc = sem.Begin(astProg, fset)
			}
			return nil
		},
		Shards: func(workers int) (int, func(int)) {
			return sc.NumProcs(), sc.CheckProc
		},
		Finish: func(st *driver.PassStats) (err error) {
			semProg, err = sc.Finish()
			st.Procs = sc.NumProcs()
			return err
		}})
	// Lowering fans out per procedure; the serial Finish epilogue hands
	// out the dense program-wide variable and call-site IDs in
	// procedure order, reproducing exactly the serial numbering.
	m.Add(driver.Pass{Name: "irbuild",
		Run: func(st *driver.PassStats) error {
			if patch != nil {
				pb = irbuild.Patch(semProg, patch.base, patch.changed)
				st.Notes = patch.notes()
			} else {
				pb = irbuild.NewBuilder(semProg)
			}
			return nil
		},
		Shards: func(workers int) (int, func(int)) {
			return pb.NumProcs(), pb.BuildProc
		},
		Finish: func(st *driver.PassStats) (err error) {
			irProg, err = pb.Finish()
			st.Procs = pb.NumProcs()
			return err
		}})
	m.Add(driver.Pass{Name: "callgraph", Run: func(st *driver.PassStats) error {
		cg = callgraph.Build(irProg)
		st.Procs = len(cg.Reachable)
		back, total := cg.BackEdgeRatio()
		st.Notes = fmt.Sprintf("%d edges, %d back", total, back)
		return nil
	}})
	// The interprocedural alias-pair fixpoint stays serial (it iterates
	// shared per-procedure pair sets over call edges); only the
	// per-procedure partner-list construction shards.
	m.Add(driver.Pass{Name: "alias",
		Run: func(st *driver.PassStats) error {
			al = alias.Fixpoint(irProg, cg)
			st.Procs = len(cg.Reachable)
			return nil
		},
		Shards: func(workers int) (int, func(int)) {
			return len(cg.Reachable), al.BuildPartners
		},
		Finish: func(st *driver.PassStats) error {
			al.FinishPartners()
			return nil
		}})
	// Immediate MOD/REF collection is a per-procedure IR walk and
	// shards; the callee-first solve and MayDef fill stay serial in
	// Finish, whose notes count the solve's work.
	m.Add(driver.Pass{Name: "modref",
		Run: func(st *driver.PassStats) error {
			mb = modref.Begin(irProg, cg, al)
			st.Procs = len(cg.Reachable)
			return nil
		},
		Shards: func(workers int) (int, func(int)) {
			return mb.NumProcs(), mb.CollectProc
		},
		Finish: func(st *driver.PassStats) error {
			mr = mb.Finish()
			st.Notes += " " + mr.Work.String()
			return nil
		}})
	// Clobber insertion mutates the IR, so it must follow MOD/REF,
	// which reads the pre-clobber program. Each shard rewrites and
	// renumbers only its own function.
	m.Add(driver.Pass{Name: "clobbers",
		Shards: func(workers int) (int, func(int)) {
			return al.ClobberShards(irProg, cg)
		}})
	trace := driver.NewTrace()
	if err := m.Run(ctx, trace); err != nil {
		return nil, err
	}
	return &Program{ctx: &icp.Context{Prog: irProg, CG: cg, AL: al, MR: mr}, trace: trace}, nil
}

// LoadDir loads a corpus from a directory: the files named by a
// progen corpus manifest (corpus.json) when one is present, otherwise
// every *.mf file in lexical order. File contents stream through the
// parse pass — each is read just before its parse and released just
// after, so at most LoadOptions.Workers file contents are in memory at
// once, never the whole corpus.
func LoadDir(dir string, opts LoadOptions) (*Program, error) {
	return LoadDirContext(context.Background(), dir, opts)
}

// LoadDirContext is LoadDir under a context.
func LoadDirContext(ctx context.Context, dir string, opts LoadOptions) (*Program, error) {
	names, err := corpusFileNames(dir)
	if err != nil {
		return nil, err
	}
	cfs := make([]corpusFile, 0, len(names))
	for _, name := range names {
		path := filepath.Join(dir, name)
		fi, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		cfs = append(cfs, corpusFile{name: name, size: int(fi.Size()), read: func() (string, error) {
			b, err := os.ReadFile(path)
			return string(b), err
		}})
	}
	return loadCorpus(ctx, cfs, opts, nil)
}

// corpusFileNames resolves a corpus directory to an ordered file list.
func corpusFileNames(dir string) ([]string, error) {
	if m, err := progen.ReadManifest(dir); err == nil {
		return m.Files, nil
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".mf") {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("fsicp: no corpus manifest and no .mf files in %s", dir)
	}
	sort.Strings(names)
	return names, nil
}

// Procedures returns the names of the procedures reachable from main,
// in the forward topological order the analyses use.
func (p *Program) Procedures() []string {
	out := make([]string, len(p.ctx.CG.Reachable))
	for i, q := range p.ctx.CG.Reachable {
		out[i] = q.Name
	}
	return out
}

// BackEdges reports how recursive the program is: the number of call
// graph back edges and the total number of call edges (the paper's
// measure of how flow-insensitive the combined FS solution becomes).
func (p *Program) BackEdges() (back, total int) {
	return p.ctx.CG.BackEdgeRatio()
}

// DumpIR renders the whole-program CFG IR.
func (p *Program) DumpIR() string { return p.ctx.Prog.Dump() }

// DumpCallGraph renders the PCG with back edges marked "*".
func (p *Program) DumpCallGraph() string { return p.ctx.CG.Dump() }

// Constant is one interprocedurally propagated constant.
type Constant struct {
	Proc  string `json:"proc"` // procedure at whose entry the constant holds
	Var   string `json:"var"`  // formal parameter or global name
	Value string `json:"value"`
	Kind  string `json:"kind"` // "formal" or "global"
}

// Analysis is the outcome of one ICP run.
type Analysis struct {
	prog  *Program
	res   *icp.Result
	cfg   Config
	trace *driver.Trace
}

// Analyze runs the selected ICP method. It is safe to call concurrently
// on the same Program (each call gets its own result and trace). It
// panics on a version a later Session.Update retired.
func (p *Program) Analyze(cfg Config) *Analysis {
	a, err := p.AnalyzeContext(context.Background(), cfg)
	if err != nil {
		// Unreachable with a background context unless the engine has a
		// genuine bug outside every protected region; surface it exactly
		// as the pre-backstop code would have.
		panic(err)
	}
	return a
}

// AnalyzeContext is Analyze under a context. Cancellation and deadline
// expiry do not fail the analysis: unfinished procedures degrade to
// the flow-insensitive solution and are reported by
// Analysis.Degradations. The returned error is reserved for internal
// failures that escape every recovery layer and for a version a later
// Session.Update retired (see Session); injected faults, timeouts, and
// fuel exhaustion never produce one.
func (p *Program) AnalyzeContext(ctx context.Context, cfg Config) (*Analysis, error) {
	return p.analyze(ctx, cfg, nil)
}

// errRetired is the error analysing a version a Session replaced.
var errRetired = errors.New("fsicp: program version retired by a later Session.Update")

// analyze implements Analyze and Session.Analyze; eng is the session's
// incremental engine (nil for a cold run).
func (p *Program) analyze(ctx context.Context, cfg Config, eng *incr.Engine) (a *Analysis, err error) {
	// Backstop: the per-pass and per-worker recover() wrappers inside
	// the engine isolate faults at their site; anything that still
	// escapes becomes an error here rather than a crashed process.
	defer func() {
		if r := recover(); r != nil {
			a, err = nil, fmt.Errorf("analysis panic: %v", r)
		}
	}()
	if p.retired.Load() {
		return nil, errRetired
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Timeout)
		defer cancel()
	}
	// Every analysis carries its own trace, seeded with the load
	// pipeline's pass records so Stats reports the whole journey from
	// source text to solution.
	tr := driver.NewTrace()
	if p.trace != nil {
		for _, st := range p.trace.Passes() {
			tr.Record(st)
		}
	}
	if eng == nil && cfg.CacheDir != "" {
		eng = newEngine(cfg, tr)
		eng.SetOneShot() // for the disk cache alone; dropped after this run
	}
	opts := icp.Options{
		Method:          cfg.Method,
		PropagateFloats: cfg.PropagateFloats,
		ReturnConstants: cfg.ReturnConstants,
		ReturnsRefresh:  cfg.ReturnsRefresh,
		Workers:         cfg.Workers,
		Trace:           tr,
		Incr:            eng,
		Ctx:             ctx,
		Fuel:            cfg.Fuel,
		// Nothing downstream of the public API reads Result.Intra; the
		// facade re-derives SSA views on demand, so intraprocedural
		// results recycle through the scc pool instead of accumulating.
		DropIntra:   true,
		NoDeltaSkip: cfg.noDeltaSkip,
	}
	if inj := faultinject.New(cfg.Faults); inj != nil {
		opts.Faults = inj.Hook()
		opts.FaultKey = cfg.Faults.String()
	}
	return &Analysis{prog: p, res: icp.Analyze(p.ctx, opts), cfg: cfg, trace: tr}, nil
}

// SourceFingerprint fingerprints MiniFort source text by its token
// stream: kinds and spellings, never positions, comments, or
// whitespace. Two sources with equal fingerprints compile to
// structurally identical programs and therefore produce byte-identical
// analyses under equal configurations — the property the daemon's
// request coalescing and session pool rely on. The computation is one
// lexer sweep, far cheaper than a load.
func SourceFingerprint(src string) string { return incr.SweepSource(src).Key }

// FlushCaches marks a run boundary on every persistent cache handle
// the process has opened (see Config.CacheDir): the generation stamp
// advances and is written to disk, so entries from this process age
// correctly in replicas that share the directory. Entry data itself is
// always written through at commit time; this flushes only the
// recency clock. The daemon calls it on graceful shutdown.
func FlushCaches() {
	diskStores.Range(func(_, v any) bool {
		v.(*store.Disk).EndRun()
		return true
	})
}

// diskStores shares one persistent store handle per cache directory:
// repeated analyses (and every Session engine) using the same
// directory see one generation sequence, one size accounting, and one
// set of counters.
var diskStores sync.Map // absolute dir → *store.Disk

// diskStore returns the shared handle for dir, opening it on first
// use. An unusable directory records a trace note and returns nil —
// the analysis proceeds without a disk layer rather than failing.
func diskStore(dir string, tr *driver.Trace) *store.Disk {
	if abs, err := filepath.Abs(dir); err == nil {
		dir = abs
	}
	if d, ok := diskStores.Load(dir); ok {
		return d.(*store.Disk)
	}
	d, err := store.Open(dir, store.Options{})
	if err != nil {
		tr.Record(driver.PassStats{Name: "cache", Notes: "disk layer disabled: " + err.Error()})
		return nil
	}
	actual, _ := diskStores.LoadOrStore(dir, d)
	return actual.(*store.Disk)
}

// newEngine builds the incremental engine for one Config: the
// in-memory generational cache alone by default, layered over the
// persistent store when CacheDir is set.
func newEngine(cfg Config, tr *driver.Trace) *incr.Engine {
	if cfg.CacheDir != "" {
		if d := diskStore(cfg.CacheDir, tr); d != nil {
			return incr.NewEngineWithStore(incr.NewTiered(incr.NewMemStore(), d))
		}
	}
	return incr.NewEngine()
}

// CacheStats is one run's summary-store traffic (see Config.CacheDir).
type CacheStats = incr.StoreStats

// CacheStats reports this run's summary-store counters. Cache traffic
// is observability, not part of the analysis result: reports compare
// byte-identical whatever these numbers say.
func (a *Analysis) CacheStats() CacheStats { return a.res.Store }

// Stats returns one record per pipeline pass that ran for this
// analysis, in execution order: the load passes (parse through
// clobbers) followed by the analysis passes (FI, FS, returns,
// metrics, ...).
func (a *Analysis) Stats() []driver.PassStats { return a.trace.Passes() }

// StatsTable renders Stats as an aligned per-pass timing table (the
// -stats output of cmd/fsicp).
func (a *Analysis) StatsTable() string { return a.trace.Table() }

// Constants lists every interprocedural constant the method
// established, sorted by procedure then variable.
func (a *Analysis) Constants() []Constant {
	var out []Constant
	for _, p := range a.prog.ctx.CG.Reachable {
		for _, f := range p.Params {
			if v, ok := a.res.EntryConstant(p, f); ok {
				out = append(out, Constant{Proc: p.Name, Var: f.Name, Value: v.String(), Kind: "formal"})
			}
		}
		// DREF(p) lies inside p's global segment, which is in
		// declaration order.
		for _, g := range a.prog.ctx.Prog.FuncOf[p].Globals() {
			if v, ok := a.res.EntryConstant(p, g); ok && a.prog.ctx.MR.DRef(p).Has(g) {
				out = append(out, Constant{Proc: p.Name, Var: g.Name, Value: v.String(), Kind: "global"})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Proc != out[j].Proc {
			return out[i].Proc < out[j].Proc
		}
		return out[i].Var < out[j].Var
	})
	return out
}

// ReturnConstant reports the constant a function returns, if the
// return-constant extension proved one.
func (a *Analysis) ReturnConstant(proc string) (string, bool) {
	p := a.prog.ctx.Prog.Sem.ProcByName[proc]
	if p == nil || a.res.Returns == nil {
		return "", false
	}
	if i := a.res.CG.PosOf(p); i >= 0 && a.res.Returns[i].IsConst() {
		return a.res.Returns[i].Val().String(), true
	}
	return "", false
}

// Duration returns the wall-clock time of the ICP phase.
func (a *Analysis) Duration() time.Duration { return a.res.AnalysisTime }

// UsedFlowInsensitiveFallback reports how many call edges consulted the
// flow-insensitive solution (non-zero only on recursive programs under
// the flow-sensitive method).
func (a *Analysis) UsedFlowInsensitiveFallback() int { return a.res.BackEdgesUsed }

// Degradations lists every procedure the analysis answered from the
// flow-insensitive fallback instead of the full flow-sensitive
// solution — because of a panic, fuel exhaustion, cancellation, or a
// deadline — sorted by (procedure, pass, reason). Empty on a fully
// precise run. Degraded results are sound over-approximations: every
// constant reported is still a true constant.
func (a *Analysis) Degradations() []Degradation {
	return append(make([]Degradation, 0, len(a.res.Degradations)), a.res.Degradations...)
}

// Degraded reports whether any procedure fell back to the
// flow-insensitive solution during this analysis.
func (a *Analysis) Degraded() bool { return len(a.res.Degradations) > 0 }

// CallSiteInfo describes one call site under an analysis: which
// arguments carry known constants there. The paper calls these the
// call-site constant candidates; they are the raw material for
// transformations like procedure cloning.
type CallSiteInfo struct {
	Caller string `json:"caller"`
	Callee string `json:"callee"`
	// Args holds one entry per actual: the constant's rendering, or
	// "" when the argument is not constant at this site.
	Args []string `json:"args"`
	// Reachable is false when the analysis proved the call site dead.
	Reachable bool `json:"reachable"`
}

// CallSites lists every call site of the program with its constant
// arguments. After a transformation rewrote the program, it lists the
// sites that remain, with the values this analysis found for them; a
// site the analysis never saw reads as reachable with no constants.
func (a *Analysis) CallSites() []CallSiteInfo {
	var out []CallSiteInfo
	for _, e := range a.prog.ctx.CG.Edges {
		info := CallSiteInfo{Caller: e.Caller.Name, Callee: e.Callee.Name, Reachable: true}
		top := false
		for i := range e.Site.Args {
			v := a.res.ArgVal(e, i)
			top = top || v.IsTop()
			if v.IsConst() {
				info.Args = append(info.Args, v.Val().String())
			} else {
				info.Args = append(info.Args, "")
			}
		}
		// Reachability comes from the flow-sensitive solution itself: a
		// site in a dead procedure or an unexecuted block is dead even
		// when it passes no arguments (⊤ argument values alone would
		// miss zero-arg calls). The portable summary carries it, so a
		// procedure reused from the incremental cache answers the same
		// as a freshly analysed one.
		ae, seen := a.res.Edge(e)
		switch {
		case !seen: // added after the analysis: nothing is known
		case a.res.Dead(int(ae.CallerPos)):
			info.Reachable = false
		case a.res.Proc != nil:
			info.Reachable = a.res.Proc[ae.CallerPos].Sites[ae.SiteIdx].Reachable
		default:
			// Flow-insensitive method: no intraprocedural fixpoint; fall
			// back to the ⊤-argument signal.
			info.Reachable = !top
		}
		out = append(out, info)
	}
	return out
}

// AnnotatedListing renders a per-procedure summary of the solution: the
// signature of every reachable procedure followed by the constants the
// analysis established at its entry (and its return constant, when the
// extension ran). Useful as a human-readable report of what the
// propagation achieved.
func (a *Analysis) AnnotatedListing() string {
	var b strings.Builder
	ctx := a.prog.ctx
	for _, p := range ctx.CG.Reachable {
		i := a.res.CG.PosOf(p) // -1 for a procedure a later pass added
		kw := "proc"
		if p.IsFunc {
			kw = "func"
		}
		params := make([]string, len(p.Params))
		for i, f := range p.Params {
			params[i] = f.Name + " " + f.Type.String()
		}
		fmt.Fprintf(&b, "%s %s(%s)", kw, p.Name, strings.Join(params, ", "))
		if p.IsFunc {
			fmt.Fprintf(&b, " %s", p.Result)
		}
		b.WriteString("\n")
		if i >= 0 && a.res.Dead(i) {
			b.WriteString("  # unreachable under this solution\n")
			continue
		}
		var facts []string
		for _, f := range p.Params {
			if v, ok := a.res.EntryConstant(p, f); ok {
				facts = append(facts, f.Name+" = "+v.String())
			}
		}
		for _, g := range ctx.Prog.FuncOf[p].Globals() {
			if v, ok := a.res.EntryConstant(p, g); ok && ctx.MR.DRef(p).Has(g) {
				facts = append(facts, g.Name+" = "+v.String())
			}
		}
		if len(facts) > 0 {
			fmt.Fprintf(&b, "  # entry constants: %s\n", strings.Join(facts, ", "))
		}
		if i >= 0 && a.res.Returns != nil && a.res.Returns[i].IsConst() {
			fmt.Fprintf(&b, "  # returns %s\n", a.res.Returns[i].Val().String())
		}
	}
	return b.String()
}

// CallSiteMetrics is the paper's Table 1 row shape.
type CallSiteMetrics = metrics.CallSite

// EntryMetrics is the paper's Table 2 row shape.
type EntryMetrics = metrics.Entry

// CallSiteMetrics computes the call-site constant-candidate counts.
func (a *Analysis) CallSiteMetrics() CallSiteMetrics {
	var m CallSiteMetrics
	a.trace.Time("metrics", func(st *driver.PassStats) {
		m = metrics.CallSiteMetrics(a.res)
		st.Notes = "call sites"
	})
	return m
}

// EntryMetrics computes the propagated-constant counts.
func (a *Analysis) EntryMetrics() EntryMetrics {
	var m EntryMetrics
	a.trace.Time("metrics", func(st *driver.PassStats) {
		m = metrics.EntryMetrics(a.res)
		st.Notes = "entries"
	})
	return m
}

// Substitutions counts the intraprocedural constant substitutions this
// solution enables (the paper's Table 5 metric), along with folded
// branches and unreachable blocks.
func (a *Analysis) Substitutions() (substitutions, foldedBranches, unreachableBlocks int) {
	c := transform.CountSubstitutions(a.prog.ctx, func(q *sem.Proc) lattice.Env[*sem.Var] {
		return a.res.Entry[q]
	})
	return c.Substitutions, c.FoldedBranches, c.UnreachableBlocks
}

// envFn adapts the analysis result to the transform package's entry
// environment interface.
func (a *Analysis) envFn() transform.EnvFn {
	return func(q *sem.Proc) lattice.Env[*sem.Var] { return a.res.Entry[q] }
}

// OptimizeOptions selects optimization passes for Analysis.Optimize.
// The zero value (no pass selected) means every pass, so
// Optimize(OptimizeOptions{}) and Optimize(AllOptimizations()) agree;
// OptimizeOptions{Fold: true} is the paper's transformation step alone.
type OptimizeOptions struct {
	// Fold enables constant folding + dead-branch deletion (the
	// paper's transformation step).
	Fold bool
	// CopyProp enables copy propagation.
	CopyProp bool
	// DSE enables dead-store elimination (removal of pure computations
	// whose result is never observed — typically copies stranded by
	// CopyProp).
	DSE bool
	// CSE enables local common-subexpression elimination over the
	// dominator tree.
	CSE bool
	// LICM enables hoisting of loop-invariant constants.
	LICM bool
	// Workers bounds the per-function shard fan-out (0 = GOMAXPROCS).
	// The rewritten program and the report are identical for every
	// worker count.
	Workers int
}

// AllOptimizations selects every pass.
func AllOptimizations() OptimizeOptions {
	return OptimizeOptions{Fold: true, CopyProp: true, DSE: true, CSE: true, LICM: true}
}

func (o OptimizeOptions) passes() []string {
	var out []string
	if o.Fold {
		out = append(out, transform.PassFold)
	}
	if o.CopyProp {
		out = append(out, transform.PassCopyProp)
	}
	if o.DSE {
		out = append(out, transform.PassDSE)
	}
	if o.CSE {
		out = append(out, transform.PassCSE)
	}
	if o.LICM {
		out = append(out, transform.PassLICM)
	}
	if out == nil {
		out = transform.AllPasses()
	}
	return out
}

// OptPassStats is the per-pass slice of an OptimizeReport.
type OptPassStats struct {
	Pass             string `json:"pass"`
	EntryAssignments int    `json:"entryAssignments,omitempty"`
	FoldedInstrs     int    `json:"foldedInstrs,omitempty"`
	FoldedBranches   int    `json:"foldedBranches,omitempty"`
	RemovedBlocks    int    `json:"removedBlocks,omitempty"`
	RemovedInstrs    int    `json:"removedInstrs,omitempty"`
	CopiesPropagated int    `json:"copiesPropagated,omitempty"`
	DeadStores       int    `json:"deadStores,omitempty"`
	CSEReplaced      int    `json:"cseReplaced,omitempty"`
	HoistedConsts    int    `json:"hoistedConsts,omitempty"`
}

// OptimizeReport is what Optimize did to the program: totals across the
// pipeline, then the per-pass breakdown in execution order.
type OptimizeReport struct {
	EntryAssignments int `json:"entryAssignments"`
	FoldedInstrs     int `json:"foldedInstrs"`
	FoldedBranches   int `json:"foldedBranches"`
	RemovedBlocks    int `json:"removedBlocks"`
	RemovedInstrs    int `json:"removedInstrs"`
	CopiesPropagated int `json:"copiesPropagated"`
	DeadStores       int `json:"deadStores"`
	CSEReplaced      int `json:"cseReplaced"`
	HoistedConsts    int `json:"hoistedConsts"`

	Passes []OptPassStats `json:"passes"`
}

// EliminatedInstrs is the headline "instructions eliminated" number:
// instructions deleted outright plus expression evaluations reduced to
// constant loads or copies.
func (r OptimizeReport) EliminatedInstrs() int {
	return r.RemovedInstrs + r.FoldedInstrs + r.CSEReplaced + r.DeadStores
}

// Optimize runs the SSA optimization pipeline over the program, driven
// by this analysis's constant-propagation results: constant folding +
// dead-branch deletion, copy propagation, dead-store elimination, local
// CSE, and loop-invariant constant hoisting, each sharded per function
// through the driver pass manager (their stats join
// Analysis.StatsTable). It is the one way to rewrite the program; the
// fold pass alone (OptimizeOptions{Fold: true}) is the paper's
// transformation step. The rewrite is destructive — it must not be
// applied to a Program still owned by a Session — but
// semantics-preserving: Run produces byte-identical output before and
// after, for every pass combination and worker count.
func (a *Analysis) Optimize(opts OptimizeOptions) (OptimizeReport, error) {
	rep, err := transform.Optimize(a.prog.ctx, a.envFn(), transform.Options{
		Passes:  opts.passes(),
		Workers: opts.Workers,
		Trace:   a.trace,
	})
	if err != nil {
		return OptimizeReport{}, err
	}
	out := OptimizeReport{
		EntryAssignments: rep.EntryAssignments,
		FoldedInstrs:     rep.FoldedInstrs,
		FoldedBranches:   rep.FoldedBranches,
		RemovedBlocks:    rep.RemovedBlocks,
		RemovedInstrs:    rep.RemovedInstrs,
		CopiesPropagated: rep.CopiesPropagated,
		DeadStores:       rep.DeadStores,
		CSEReplaced:      rep.CSEReplaced,
		HoistedConsts:    rep.HoistedConsts,
	}
	for _, p := range rep.Passes {
		out.Passes = append(out.Passes, OptPassStats{
			Pass:             p.Pass,
			EntryAssignments: p.EntryAssignments,
			FoldedInstrs:     p.FoldedInstrs,
			FoldedBranches:   p.FoldedBranches,
			RemovedBlocks:    p.RemovedBlocks,
			RemovedInstrs:    p.RemovedInstrs,
			CopiesPropagated: p.CopiesPropagated,
			DeadStores:       p.DeadStores,
			CSEReplaced:      p.CSEReplaced,
			HoistedConsts:    p.HoistedConsts,
		})
	}
	return out, nil
}

// ProcElimination is one procedure's row in Eliminations.
type ProcElimination struct {
	// Proc is the procedure name.
	Proc string `json:"proc"`
	// Instrs counts eliminable instructions: constant-foldable ones
	// plus those in unexecutable blocks.
	Instrs int `json:"instrs"`
	// Branches counts foldable conditional branches.
	Branches int `json:"branches"`
}

// Eliminations previews what the fold pass would eliminate, per
// procedure, without mutating the program — safe on Session-owned
// programs, which is how watch mode reports optimization impact per
// edit. Procedures with nothing to eliminate are omitted.
func (a *Analysis) Eliminations() []ProcElimination {
	var out []ProcElimination
	for _, e := range transform.MeasureEliminations(a.prog.ctx, a.envFn()) {
		out = append(out, ProcElimination{Proc: e.Proc.Name, Instrs: e.Instrs, Branches: e.Branches})
	}
	return out
}

// RemoveDeadProcedures deletes procedures this analysis proved can
// never execute (run Optimize with the fold pass first so dead call
// sites are pruned). Returns the removed procedures' names.
func (a *Analysis) RemoveDeadProcedures() []string {
	return transform.RemoveDeadProcedures(a.prog.ctx, a.res)
}

// JumpAnalysis is a baseline jump-function solution.
type JumpAnalysis struct {
	prog *Program
	res  *jumpfunc.Result
}

// AnalyzeJumpFunctions runs a baseline jump-function method.
func (p *Program) AnalyzeJumpFunctions(kind JumpFunctionKind) *JumpAnalysis {
	return &JumpAnalysis{prog: p, res: jumpfunc.Analyze(p.ctx, kind)}
}

// Constants lists the constant formals the baseline found.
func (a *JumpAnalysis) Constants() []Constant {
	var out []Constant
	for _, p := range a.prog.ctx.CG.Reachable {
		for _, f := range a.res.ConstantFormals(p) {
			e := a.res.Formals[f]
			out = append(out, Constant{Proc: p.Name, Var: f.Name, Value: e.Val().String(), Kind: "formal"})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Proc != out[j].Proc {
			return out[i].Proc < out[j].Proc
		}
		return out[i].Var < out[j].Var
	})
	return out
}

// Substitutions counts the substitutions the baseline's solution
// enables (Table 5).
func (a *JumpAnalysis) Substitutions() int {
	c := transform.CountSubstitutions(a.prog.ctx, func(q *sem.Proc) lattice.Env[*sem.Var] {
		return a.res.EntryEnv(q)
	})
	return c.Substitutions
}

// Clone performs goal-directed procedure cloning (Metzger–Stroud)
// driven by this analysis's per-call-site constants: procedures whose
// call sites disagree on constant arguments are cloned per pattern, so
// a re-analysis finds the per-clone constants. The program is modified
// in place and its interprocedural context rebuilt. Returns the number
// of clones created and the number of call sites retargeted.
func (a *Analysis) Clone(maxPerProc int) (cloned, retargeted int) {
	rep := clone.Run(a.prog.ctx, a.res, clone.Options{MaxClonesPerProc: maxPerProc})
	a.prog.ctx = icp.Prepare(a.prog.ctx.Prog)
	return rep.Cloned, rep.RetargetedCS
}

// Inline expands every non-recursive call site (procedure integration,
// the alternative to ICP that Wegman and Zadeck proposed and the
// paper's related work discusses). The interprocedural context is
// rebuilt afterwards, so subsequent Analyze calls see the inlined
// program. Returns the number of call sites expanded, the number
// skipped for recursion, and the CFG block growth factor.
func (p *Program) Inline(maxDepth int) (inlined, skippedRecursive int, growth float64) {
	rep := inline.Program(p.ctx.Prog, inline.Options{MaxDepth: maxDepth})
	p.ctx = icp.Prepare(p.ctx.Prog)
	g := 1.0
	if rep.BlocksBefore > 0 {
		g = float64(rep.BlocksAfter) / float64(rep.BlocksBefore)
	}
	return rep.Inlined, rep.SkippedRec, g
}

// AnalyzeJumpFunctionsWithReturns runs a baseline with return jump
// functions enabled (Grove–Torczon's extension; the paper compares
// against their no-return configuration).
func (p *Program) AnalyzeJumpFunctionsWithReturns(kind JumpFunctionKind) *JumpAnalysis {
	return &JumpAnalysis{prog: p, res: jumpfunc.AnalyzeWithReturns(p.ctx, jumpfunc.Options{Kind: kind, Returns: true})}
}

// Use returns each reachable procedure's flow-sensitive USE set — the
// formals and globals it may reference before defining them (the §3.2
// upward-exposed-use computation; one reverse traversal, REF on back
// edges).
func (p *Program) Use() map[string][]string {
	var use map[*sem.Proc][]*sem.Var
	p.trace.Time("use", func(st *driver.PassStats) {
		use = icp.ComputeUse(p.ctx)
		st.Procs = len(p.ctx.CG.Reachable)
	})
	out := make(map[string][]string, len(use))
	for q, set := range use {
		var names []string
		for _, v := range set {
			names = append(names, v.Name)
		}
		out[q.Name] = names
	}
	return out
}

// RunResult is the outcome of interpreting the program.
type RunResult struct {
	Output string
	Steps  int
	Err    error
}

// Run executes the program with the reference interpreter. input
// supplies values for read statements (nil reads zeros); the variable's
// type name is "int", "real", or "bool".
func (p *Program) Run(input func(typeName string) any) RunResult {
	opts := interp.Options{}
	if input != nil {
		opts.Input = func(t ast.Type) val.Value {
			switch v := input(t.String()).(type) {
			case int:
				return val.Int(int64(v))
			case int64:
				return val.Int(v)
			case float64:
				return val.Real(v)
			case bool:
				return val.Bool(v)
			default:
				return val.Zero(t)
			}
		}
	}
	r := interp.Run(p.ctx.Prog, opts)
	return RunResult{Output: r.Output, Steps: r.Steps, Err: r.Err}
}

// FormatSource pretty-prints the program's AST back to canonical
// MiniFort.
func (p *Program) FormatSource() string {
	return ast.Format(p.ctx.Prog.Sem.AST)
}

// String summarises the program.
func (p *Program) String() string {
	back, total := p.BackEdges()
	return fmt.Sprintf("program %s: %d reachable procedures, %d call edges (%d back)",
		p.ctx.Prog.Sem.Name, len(p.ctx.CG.Reachable), total, back)
}
