// Package tables regenerates the paper's evaluation artifacts — Tables
// 1–5, the Figure 1 precision comparison, the §4 timing claim, and the
// §3.2 back-edge-ratio behaviour — on the synthetic SPEC suite.
package tables

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"fsicp/internal/bench"
	"fsicp/internal/clone"
	"fsicp/internal/driver"
	"fsicp/internal/icp"
	"fsicp/internal/inline"
	"fsicp/internal/irbuild"
	"fsicp/internal/jumpfunc"
	"fsicp/internal/lattice"
	"fsicp/internal/metrics"
	"fsicp/internal/parser"
	"fsicp/internal/sem"
	"fsicp/internal/source"
	"fsicp/internal/transform"
)

// Bench is one compiled-and-analysed benchmark.
type Bench struct {
	Profile bench.Profile
	Ctx     *icp.Context
	FI, FS  *icp.Result
}

// Suite is a set of analysed benchmarks under one float setting.
type Suite struct {
	Floats  bool
	Benches []*Bench
}

// Compile builds one benchmark program and its interprocedural context.
func Compile(p bench.Profile) (*icp.Context, error) {
	ctx, err := compileSource(p.Name+".mf", bench.Build(p))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.Name, err)
	}
	return ctx, nil
}

// compileSource runs the front end (parse, sem, irbuild) over one
// source file and prepares its interprocedural context.
func compileSource(name, src string) (*icp.Context, error) {
	f := source.NewFile(name, src)
	astProg, err := parser.ParseFile(f)
	if err != nil {
		return nil, err
	}
	semProg, err := sem.Check(astProg, f)
	if err != nil {
		return nil, err
	}
	irProg, err := irbuild.Build(semProg)
	if err != nil {
		return nil, err
	}
	return icp.Prepare(irProg), nil
}

// constantFormals counts the formals r proves constant over ctx's
// reachable procedures.
func constantFormals(ctx *icp.Context, r *icp.Result) int {
	n := 0
	for _, p := range ctx.CG.Reachable {
		n += len(r.ConstantFormals(p))
	}
	return n
}

// LoadSuite compiles and analyses every profile with both methods.
// Benchmarks are independent, so the work fans out across goroutines;
// results keep the profile order. Every analysis records its passes
// into tr (suite-wide, aggregated by pass name); a nil trace records
// nothing.
func LoadSuite(profiles []bench.Profile, floats bool, tr *driver.Trace) (*Suite, error) {
	s := &Suite{Floats: floats, Benches: make([]*Bench, len(profiles))}
	errs := make([]error, len(profiles))
	var wg sync.WaitGroup
	for i, p := range profiles {
		wg.Add(1)
		go func(i int, p bench.Profile) {
			defer wg.Done()
			var ctx *icp.Context
			var err error
			tr.Time("compile", func(st *driver.PassStats) {
				ctx, err = Compile(p)
				st.Notes = p.Name
			})
			if err != nil {
				errs[i] = err
				return
			}
			s.Benches[i] = &Bench{
				Profile: p,
				Ctx:     ctx,
				FI:      icp.Analyze(ctx, icp.Options{Method: icp.FlowInsensitive, PropagateFloats: floats, Trace: tr}),
				FS:      icp.Analyze(ctx, icp.Options{Method: icp.FlowSensitive, PropagateFloats: floats, Trace: tr}),
			}
		}(i, p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

// MethodMatrixTable runs every ICP method and every jump-function
// baseline concurrently over each benchmark (bench.RunMatrix) and
// renders the per-method precision and timing, with the speedup of the
// concurrent run over the serial sum. When gctx ends mid-run, the ICP
// analyses degrade to the flow-insensitive solution instead of the
// table failing. A non-empty cacheDir names a persistent summary
// cache: the precision columns are identical with or without it, only
// the timing columns change on a warm cache.
func MethodMatrixTable(gctx context.Context, profiles []bench.Profile, floats bool, cacheDir string) (string, error) {
	var b strings.Builder
	b.WriteString(header("Method matrix: all methods and baselines, run concurrently per benchmark",
		"PROGRAM        ", "METHOD                  ", "CONST", "ENTRY", "    WALL"))
	for _, p := range profiles {
		ctx, err := Compile(p)
		if err != nil {
			return "", err
		}
		m := bench.RunMatrix(gctx, ctx, floats, 0, cacheDir)
		for _, e := range m.Entries {
			fmt.Fprintf(&b, "%-15s | %-24s | %5d | %5d | %8s\n",
				p.Name, e.Name, e.ConstFormals, e.ConstEntries, round(e.Wall))
		}
		fmt.Fprintf(&b, "%-15s | %-24s |       |       | %8s (%.2fx vs serial %s, %d workers)\n",
			p.Name, "(concurrent)", round(m.Wall), m.Speedup(), round(m.Serial), m.Workers)
	}
	return b.String(), nil
}

func header(title string, cols ...string) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	b.WriteString(strings.Join(cols, " | ") + "\n")
	for i := range cols {
		if i > 0 {
			b.WriteString("-|-")
		}
		b.WriteString(strings.Repeat("-", len(cols[i])))
	}
	b.WriteString("\n")
	return b.String()
}

// CallSiteTable renders the Table 1 (or Table 3) shape: per-benchmark
// call-site constant candidates.
func (s *Suite) CallSiteTable(title string) string {
	var b strings.Builder
	b.WriteString(header(title,
		"PROGRAM        ", "  ARG", "  IMM", "  PCT", "   FI", "  PCT", "   FS", "  PCT",
		" GCAND", "GPAIR", " GVIS"))
	var tArg, tImm, tFI, tFS, tCand, tPair, tVis int
	for _, be := range s.Benches {
		fi := metrics.CallSiteMetrics(be.FI)
		fs := metrics.CallSiteMetrics(be.FS)
		fmt.Fprintf(&b, "%-15s | %4d | %4d | %4s | %4d | %4s | %4d | %4s | %5d | %4d | %4d\n",
			be.Profile.Name, fs.Args, fi.Imm, metrics.Pct(fi.Imm, fs.Args),
			fi.ConstArgs, metrics.Pct(fi.ConstArgs, fs.Args),
			fs.ConstArgs, metrics.Pct(fs.ConstArgs, fs.Args),
			fi.GlobCand, fs.GlobPairs, fs.GlobVis)
		tArg += fs.Args
		tImm += fi.Imm
		tFI += fi.ConstArgs
		tFS += fs.ConstArgs
		tCand += fi.GlobCand
		tPair += fs.GlobPairs
		tVis += fs.GlobVis
	}
	fmt.Fprintf(&b, "%-15s | %4d | %4d | %4s | %4d | %4s | %4d | %4s | %5d | %4d | %4d\n",
		"TOTAL", tArg, tImm, metrics.Pct(tImm, tArg), tFI, metrics.Pct(tFI, tArg),
		tFS, metrics.Pct(tFS, tArg), tCand, tPair, tVis)
	return b.String()
}

// EntryTable renders the Table 2 (or Table 4) shape: interprocedurally
// propagated constants at procedure entries.
func (s *Suite) EntryTable(title string) string {
	var b strings.Builder
	b.WriteString(header(title,
		"PROGRAM        ", "   FP", "   FI", "  PCT", "   FS", "  PCT", "PROCS", " GFI", " GFS"))
	var tFP, tFI, tFS, tProcs, tGFI, tGFS int
	for _, be := range s.Benches {
		fi := metrics.EntryMetrics(be.FI)
		fs := metrics.EntryMetrics(be.FS)
		fmt.Fprintf(&b, "%-15s | %4d | %4d | %4s | %4d | %4s | %5d | %3d | %3d\n",
			be.Profile.Name, fi.Formals, fi.ConstFormals, metrics.Pct(fi.ConstFormals, fi.Formals),
			fs.ConstFormals, metrics.Pct(fs.ConstFormals, fi.Formals),
			fi.Procs, fi.GlobalEntries, fs.GlobalEntries)
		tFP += fi.Formals
		tFI += fi.ConstFormals
		tFS += fs.ConstFormals
		tProcs += fi.Procs
		tGFI += fi.GlobalEntries
		tGFS += fs.GlobalEntries
	}
	fmt.Fprintf(&b, "%-15s | %4d | %4d | %4s | %4d | %4s | %5d | %3d | %3d\n",
		"TOTAL", tFP, tFI, metrics.Pct(tFI, tFP), tFS, metrics.Pct(tFS, tFP), tProcs, tGFI, tGFS)
	return b.String()
}

// SubstitutionTable renders Table 5: intraprocedural substitutions under
// the POLYNOMIAL baseline, the flow-insensitive method, and the
// flow-sensitive method.
func (s *Suite) SubstitutionTable(title string) string {
	var b strings.Builder
	b.WriteString(header(title, "PROGRAM        ", "POLYNOMIAL", "    FI", "    FS"))
	var tP, tFI, tFS int
	for _, be := range s.Benches {
		poly := jumpfunc.Analyze(be.Ctx, jumpfunc.Polynomial)
		cP := transform.CountSubstitutions(be.Ctx, func(q *sem.Proc) lattice.Env[*sem.Var] {
			return poly.EntryEnv(q)
		})
		cFI := transform.CountSubstitutions(be.Ctx, func(q *sem.Proc) lattice.Env[*sem.Var] {
			return be.FI.Entry[q]
		})
		cFS := transform.CountSubstitutions(be.Ctx, func(q *sem.Proc) lattice.Env[*sem.Var] {
			return be.FS.Entry[q]
		})
		fmt.Fprintf(&b, "%-15s | %10d | %5d | %5d\n",
			be.Profile.Name, cP.Substitutions, cFI.Substitutions, cFS.Substitutions)
		tP += cP.Substitutions
		tFI += cFI.Substitutions
		tFS += cFS.Substitutions
	}
	fmt.Fprintf(&b, "%-15s | %10d | %5d | %5d\n", "TOTAL", tP, tFI, tFS)
	return b.String()
}

// TimingTable measures the analysis phases. The paper's claim (§4) is
// that the flow-sensitive method increases the analysis phase by ~50%
// over the flow-insensitive one. In the paper's compilation model the
// flow-insensitive pipeline defers its per-procedure intraprocedural
// propagation to the backward walk, so the comparable FI cost is the
// interprocedural pass plus one deferred SCC per procedure (the
// FI+DEFER column); the flow-sensitive method interleaves that SCC into
// its single traversal (the FS column). The first run of a program
// builds its SSA into the context (icp.Context.SSA) and later runs
// reuse it, so neither best-of column includes SSA construction.
func (s *Suite) TimingTable(iters int) string {
	var b strings.Builder
	b.WriteString(header("Analysis-phase time (per run, best of "+fmt.Sprint(iters)+")",
		"PROGRAM        ", "  FI-ICP", "FI+DEFER", "      FS", "FS/(FI+DEFER)"))
	var totFI, totFIDefer, totFS time.Duration
	for _, be := range s.Benches {
		fiICP := bestOf(iters, func() {
			icp.Analyze(be.Ctx, icp.Options{Method: icp.FlowInsensitive, PropagateFloats: s.Floats})
		})
		fiDefer := bestOf(iters, func() {
			r := icp.Analyze(be.Ctx, icp.Options{Method: icp.FlowInsensitive, PropagateFloats: s.Floats})
			transform.CountSubstitutions(be.Ctx, func(q *sem.Proc) lattice.Env[*sem.Var] {
				return r.Entry[q]
			})
		})
		fs := bestOf(iters, func() {
			icp.Analyze(be.Ctx, icp.Options{Method: icp.FlowSensitive, PropagateFloats: s.Floats})
		})
		fmt.Fprintf(&b, "%-15s | %8s | %8s | %8s | %4.2f\n",
			be.Profile.Name, round(fiICP), round(fiDefer), round(fs), ratio(fs, fiDefer))
		totFI += fiICP
		totFIDefer += fiDefer
		totFS += fs
	}
	fmt.Fprintf(&b, "%-15s | %8s | %8s | %8s | %4.2f\n",
		"TOTAL", round(totFI), round(totFIDefer), round(totFS), ratio(totFS, totFIDefer))
	return b.String()
}

func bestOf(n int, f func()) time.Duration {
	if n < 1 {
		n = 1
	}
	best := time.Duration(1<<62 - 1)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		f()
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return best
}

func round(d time.Duration) string {
	switch {
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.1fµs", float64(d)/float64(time.Microsecond))
	}
}

func ratio(a, b time.Duration) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// Figure1Source is the paper's Figure 1 example program.
const Figure1Source = `program figure1
proc main() {
  call sub1(0)
}
proc sub1(f1 int) {
  var x int
  var y int
  if f1 != 0 {
    y = 1
  } else {
    y = 0
  }
  x = 0
  call sub2(y, 4, f1, x)
}
proc sub2(f2 int, f3 int, f4 int, f5 int) {
  var s int
  s = f2 + f3 + f4 + f5
  print s
}`

// Figure1Table reproduces the paper's Figure 1 precision comparison:
// which formal parameters each method proves constant.
func Figure1Table() (string, error) {
	ctx, err := compileSource("figure1.mf", Figure1Source)
	if err != nil {
		return "", err
	}

	formalNames := func(consts map[string]bool) string {
		order := []string{"f1", "f2", "f3", "f4", "f5"}
		var out []string
		for _, n := range order {
			if consts[n] {
				out = append(out, n)
			}
		}
		return strings.Join(out, ", ")
	}
	icpConsts := func(r *icp.Result) map[string]bool {
		m := make(map[string]bool)
		for _, p := range ctx.CG.Reachable {
			for _, fp := range r.ConstantFormals(p) {
				m[fp.Name] = true
			}
		}
		return m
	}
	jumpConsts := func(k jumpfunc.Kind) map[string]bool {
		r := jumpfunc.Analyze(ctx, k)
		m := make(map[string]bool)
		for _, p := range ctx.CG.Reachable {
			for _, fp := range r.ConstantFormals(p) {
				m[fp.Name] = true
			}
		}
		return m
	}

	var b strings.Builder
	b.WriteString(header("Figure 1: constant formal parameters by method",
		"METHOD          ", "CONSTANT FORMALS"))
	fs := icp.Analyze(ctx, icp.Options{Method: icp.FlowSensitive, PropagateFloats: true})
	fi := icp.Analyze(ctx, icp.Options{Method: icp.FlowInsensitive, PropagateFloats: true})
	rows := []struct {
		name   string
		consts map[string]bool
	}{
		{"FLOW-SENSITIVE", icpConsts(fs)},
		{"FLOW-INSENSITIVE", icpConsts(fi)},
		{"LITERAL", jumpConsts(jumpfunc.Literal)},
		{"INTRA", jumpConsts(jumpfunc.Intra)},
		{"PASS-THROUGH", jumpConsts(jumpfunc.PassThrough)},
		{"POLYNOMIAL", jumpConsts(jumpfunc.Polynomial)},
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s | %s\n", r.name, formalNames(r.consts))
	}
	return b.String(), nil
}

// BackEdgeSweep demonstrates the paper's §3.2 claim: as the ratio of
// back edges to total call edges grows, the flow-sensitive solution
// degrades toward the flow-insensitive one. It builds a family of
// programs with d procedures in a call chain, of which k also call back
// to the chain head, and reports constants found.
func BackEdgeSweep(depth int) string {
	var b strings.Builder
	b.WriteString(header("Back-edge ratio sweep (chain depth "+fmt.Sprint(depth)+")",
		"BACK/TOTAL", "RATIO", "FS CONSTANTS", "FI CONSTANTS"))
	for k := 0; k <= depth; k++ {
		ctx, err := compileSource("sweep.mf", backEdgeProgram(depth, k))
		if err != nil {
			panic(err)
		}
		back, total := ctx.CG.BackEdgeRatio()
		fs := icp.Analyze(ctx, icp.Options{Method: icp.FlowSensitive, PropagateFloats: true})
		fi := icp.Analyze(ctx, icp.Options{Method: icp.FlowInsensitive, PropagateFloats: true})
		fmt.Fprintf(&b, "%5d/%-4d | %5.2f | %12d | %12d\n",
			back, total, float64(back)/float64(total), constantFormals(ctx, fs), constantFormals(ctx, fi))
	}
	return b.String()
}

// backEdgeProgram builds a chain main -> p1 -> ... -> pd where the
// first k chain members also call back to p1 (guarded by a decreasing
// counter), creating k back edges. Each p_i has a formal that is
// constant only flow-sensitively (a locally computed constant passed
// down the chain).
func backEdgeProgram(depth, k int) string {
	var b strings.Builder
	b.WriteString("program sweep\n\n")
	b.WriteString("proc main() {\n  var t int\n  t = 2 + 2\n  call p1(t, 3)\n}\n")
	for i := 1; i <= depth; i++ {
		fmt.Fprintf(&b, "proc p%d(v int, n int) {\n", i)
		if i < depth {
			fmt.Fprintf(&b, "  var t int\n  t = 2 + 2\n  call p%d(t, n)\n", i+1)
		}
		if i <= k {
			fmt.Fprintf(&b, "  if n > 0 {\n    call p1(v, n - 1)\n  }\n")
		}
		b.WriteString("  print v, n\n}\n")
	}
	return b.String()
}

// InlineTable contrasts the paper's flow-sensitive ICP with the
// alternative Wegman and Zadeck proposed (and the paper's §6 discusses):
// extending the intraprocedural propagator by procedure integration.
// Full inlining plus one plain intraprocedural SCC matches or exceeds
// the interprocedural precision on non-recursive programs, but at the
// cost of code growth — the paper's "may not be efficient in practice".
// Columns: substitutions under FS ICP; substitutions after full
// inlining with plain intraprocedural propagation; CFG blocks before
// and after inlining.
func InlineTable(profiles []bench.Profile, floats bool) (string, error) {
	var b strings.Builder
	b.WriteString(header("Flow-sensitive ICP vs procedure integration (Wegman–Zadeck §6 alternative)",
		"PROGRAM        ", "FS-ICP SUBS", "INLINE SUBS", "BLOCKS", "INLINED BLOCKS", "GROWTH"))
	for _, p := range profiles {
		ctx, err := Compile(p)
		if err != nil {
			return "", err
		}
		fs := icp.Analyze(ctx, icp.Options{Method: icp.FlowSensitive, PropagateFloats: floats})
		cFS := transform.CountSubstitutions(ctx, func(q *sem.Proc) lattice.Env[*sem.Var] {
			return fs.Entry[q]
		})

		ctx2, err := Compile(p)
		if err != nil {
			return "", err
		}
		rep := inline.Program(ctx2.Prog, inline.Options{MaxDepth: 4})
		// Re-prepare: the inlined program needs fresh call-graph and
		// MOD/REF information for its remaining (recursive) calls.
		ctx3 := icp.Prepare(ctx2.Prog)
		cIn := transform.CountSubstitutions(ctx3, func(q *sem.Proc) lattice.Env[*sem.Var] {
			return nil // plain intraprocedural propagation
		})
		growth := float64(rep.BlocksAfter) / float64(rep.BlocksBefore)
		fmt.Fprintf(&b, "%-15s | %11d | %11d | %6d | %14d | %5.2fx\n",
			p.Name, cFS.Substitutions, cIn.Substitutions, rep.BlocksBefore, rep.BlocksAfter, growth)
	}
	return b.String(), nil
}

// CloneTable measures Metzger–Stroud goal-directed cloning on the
// suite: constant formals found by the flow-sensitive method before and
// after one cloning round, and the procedure-count growth. The paper's
// §5 cites exactly this effect ("can substantially increase the number
// of interprocedural constants").
func CloneTable(profiles []bench.Profile, floats bool) (string, error) {
	var b strings.Builder
	b.WriteString(header("Goal-directed procedure cloning (Metzger–Stroud) on the FS solution",
		"PROGRAM        ", "FS FORMALS", "AFTER CLONING", "CLONES", "PROCS", "PROCS'"))
	for _, p := range profiles {
		ctx, err := Compile(p)
		if err != nil {
			return "", err
		}
		fs := icp.Analyze(ctx, icp.Options{Method: icp.FlowSensitive, PropagateFloats: floats})
		before := 0
		for _, q := range ctx.CG.Reachable {
			before += len(fs.ConstantFormals(q))
		}
		procsBefore := len(ctx.CG.Reachable)

		rep := clone.Run(ctx, fs, clone.Options{MaxClonesPerProc: 4})
		ctx2 := icp.Prepare(ctx.Prog)
		fs2 := icp.Analyze(ctx2, icp.Options{Method: icp.FlowSensitive, PropagateFloats: floats})
		after := 0
		for _, q := range ctx2.CG.Reachable {
			after += len(fs2.ConstantFormals(q))
		}
		fmt.Fprintf(&b, "%-15s | %10d | %13d | %6d | %5d | %6d\n",
			p.Name, before, after, rep.Cloned, procsBefore, len(ctx2.CG.Reachable))
	}
	return b.String(), nil
}

// IterativeTable quantifies the paper's efficiency argument: the
// one-pass flow-sensitive method versus the fully iterative fixpoint.
// On an acyclic PCG the solutions are identical (the paper's §3.2
// equivalence); on recursive programs the iterative method may find
// more constants but re-analyses procedures. Columns: constant formals
// under each method, intraprocedural analyses performed (one-pass
// always = #procs), and fixpoint rounds.
func IterativeTable(profiles []bench.Profile, floats bool) (string, error) {
	var b strings.Builder
	b.WriteString(header("One-pass flow-sensitive vs iterative fixpoint",
		"PROGRAM        ", "FS CONSTS", "ITER CONSTS", "PROCS", "ITER SCC RUNS", "ROUNDS"))
	for _, p := range profiles {
		ctx, err := Compile(p)
		if err != nil {
			return "", err
		}
		fs := icp.Analyze(ctx, icp.Options{Method: icp.FlowSensitive, PropagateFloats: floats})
		iter := icp.Analyze(ctx, icp.Options{Method: icp.FlowSensitiveIterative, PropagateFloats: floats})
		fmt.Fprintf(&b, "%-15s | %9d | %11d | %5d | %13d | %6d\n",
			p.Name, constantFormals(ctx, fs), constantFormals(ctx, iter), len(ctx.CG.Reachable), iter.SCCRuns, iter.Iterations)
	}
	// A recursive family where iteration genuinely pays.
	for _, k := range []int{2, 4} {
		ctx, err := compileSource("rec.mf", backEdgeProgram(6, k))
		if err != nil {
			return "", err
		}
		fs := icp.Analyze(ctx, icp.Options{Method: icp.FlowSensitive, PropagateFloats: floats})
		iter := icp.Analyze(ctx, icp.Options{Method: icp.FlowSensitiveIterative, PropagateFloats: floats})
		fmt.Fprintf(&b, "%-15s | %9d | %11d | %5d | %13d | %6d\n",
			fmt.Sprintf("recursive k=%d", k), constantFormals(ctx, fs), constantFormals(ctx, iter), len(ctx.CG.Reachable), iter.SCCRuns, iter.Iterations)
	}
	return b.String(), nil
}

// UseTable reports the §3.2 USE computation: per benchmark, the total
// sizes of the flow-sensitive USE sets versus the flow-insensitive REF
// sets they refine (USE ⊆ REF; the gap is variables always rewritten
// before their first use).
func UseTable(profiles []bench.Profile) (string, error) {
	var b strings.Builder
	b.WriteString(header("Flow-sensitive USE vs flow-insensitive REF (Σ set sizes)",
		"PROGRAM        ", "Σ|USE|", "Σ|REF|", "USE/REF"))
	for _, p := range profiles {
		ctx, err := Compile(p)
		if err != nil {
			return "", err
		}
		use := icp.ComputeUse(ctx)
		uTot, rTot := 0, 0
		for _, q := range ctx.CG.Reachable {
			ref := ctx.MR.Ref(q)
			uTot += len(use[q])
			rTot += ref.Len()
			// structural sanity: USE ⊆ REF
			for _, v := range use[q] {
				if !ref.Has(v) {
					return "", fmt.Errorf("%s: USE(%s) ∋ %s ∉ REF", p.Name, q.Name, v.Name)
				}
			}
		}
		r := 1.0
		if rTot > 0 {
			r = float64(uTot) / float64(rTot)
		}
		fmt.Fprintf(&b, "%-15s | %6d | %6d | %7.2f\n", p.Name, uTot, rTot, r)
	}
	return b.String(), nil
}
