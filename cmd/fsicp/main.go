// Command fsicp analyses a MiniFort program with the paper's
// interprocedural constant propagation methods.
//
//	fsicp [flags] file.mf
//	fsicp [flags] corpusdir/
//
// A directory argument names a multi-file corpus: the files listed by
// a progen manifest (corpus.json) when present, otherwise every *.mf
// file in lexical order, with exactly one "program" unit among them.
//
//	-method fs|fi|iter|literal|intra|passthrough|polynomial
//	        analysis to run (default fs); -json, -optimize and -watch
//	        need fs, fi or iter
//	-floats propagate floating-point constants (default true)
//	-returns enable the return-constant extension (fs only)
//	-metrics print the paper's call-site and entry metrics
//	-subst   print the substitution counts (Table 5 metric)
//	-dump-ir print the program IR
//	-cg      print the call graph with back edges marked
//	-run     execute the program with the reference interpreter
//	-optimize run the full SSA optimization pipeline (constant folding,
//	         copy propagation, dead-store elimination, CSE, LICM) and
//	         print the per-pass report and the transformed IR; with -json
//	         the report is attached under "optimize"
//	-opt-passes p1,p2 restrict -optimize to a pass subset
//	         (fold, copyprop, dse, cse, licm); -opt-passes fold applies
//	         the paper's transformation step alone
//	-stats   print the per-pass timing table (load, analysis and, with
//	         -optimize, optimizer passes), with live-heap and GC-cycle
//	         notes on the load passes and, when -cache-dir is set, a
//	         cache hit/miss summary; with -json it goes to stderr, so
//	         stdout holds the report alone
//	-cache-dir d keep a persistent summary cache in directory d: warm
//	         runs of the same program and configuration reuse on-disk
//	         procedure summaries instead of re-solving them. The cache
//	         affects time only — reports are byte-identical with or
//	         without it, even when cache files are corrupted
//	-workers N bound both the sharded load passes (per-file parsing,
//	         per-procedure lowering, alias/MOD/REF collection, clobbers)
//	         and the per-level analysis concurrency (0 = GOMAXPROCS)
//	-timeout D wall-clock deadline for the analysis; procedures still
//	         unfinished at expiry degrade (soundly) to the
//	         flow-insensitive solution and are listed in the output
//	-fuel N  per-procedure step budget; a procedure exceeding it
//	         degrades to the flow-insensitive solution
//	-json    emit the analysis as machine-readable JSON
//	-watch   keep running: re-analyse incrementally whenever the file
//	         changes, printing only the constant and eliminable-code
//	         deltas and the reuse the incremental engine achieved
//	-cpuprofile f  write a pprof CPU profile of the run to f
//	-memprofile f  write a pprof heap profile to f on exit
//
// With no file argument, fsicp reads from standard input.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	fsicp "fsicp"
	"fsicp/internal/bench"
	"fsicp/internal/report"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "fsicp: "+format+"\n", args...)
	os.Exit(1)
}

// The -method values: the paper's ICP methods and the jump-function
// baselines.
var (
	icpMethods = map[string]fsicp.Method{
		"fs": fsicp.FlowSensitive, "fi": fsicp.FlowInsensitive, "iter": fsicp.FlowSensitiveIterative,
	}
	jumpKinds = map[string]fsicp.JumpFunctionKind{
		"literal": fsicp.Literal, "intra": fsicp.IntraConstant,
		"passthrough": fsicp.PassThrough, "polynomial": fsicp.Polynomial,
	}
)

// checkMethod validates -method before anything is loaded or printed:
// an unknown method fails, and so does a jump-function baseline under
// a flag only the ICP methods support (-json, -optimize, -watch).
func checkMethod(method string, jsonOut, optimize, watch bool) error {
	if _, ok := icpMethods[method]; ok {
		return nil
	}
	if _, ok := jumpKinds[method]; !ok {
		return fmt.Errorf("unknown method %q", method)
	}
	var name string
	switch {
	case jsonOut:
		name = "-json"
	case optimize:
		name = "-optimize"
	case watch:
		name = "-watch"
	default:
		return nil
	}
	return fmt.Errorf("%s supports the fs|fi|iter methods, not %q", name, method)
}

// icpConfig maps a -method value to an ICP configuration; ok is false
// for the jump-function baselines.
func icpConfig(method string, floats, returns bool, workers int, timeout time.Duration, fuel int, cacheDir string) (fsicp.Config, bool) {
	m, ok := icpMethods[method]
	return fsicp.Config{Method: m, PropagateFloats: floats, ReturnConstants: returns, Workers: workers, Timeout: timeout, Fuel: fuel, CacheDir: cacheDir}, ok
}

func main() {
	method := flag.String("method", "fs", "fs|fi|iter|literal|intra|passthrough|polynomial")
	floats := flag.Bool("floats", true, "propagate floating-point constants")
	returns := flag.Bool("returns", false, "enable the return-constant extension")
	showMetrics := flag.Bool("metrics", false, "print call-site and entry metrics")
	showSubst := flag.Bool("subst", false, "print substitution counts")
	annotate := flag.Bool("annotate", false, "print a per-procedure constant summary")
	showUse := flag.Bool("use", false, "print flow-sensitive USE sets")
	dumpIR := flag.Bool("dump-ir", false, "print the program IR")
	dumpCG := flag.Bool("cg", false, "print the call graph")
	run := flag.Bool("run", false, "execute the program")
	doOptimize := flag.Bool("optimize", false, "run the SSA optimization pipeline and print the per-pass report and transformed IR")
	optPasses := flag.String("opt-passes", "", "comma-separated pipeline passes for -optimize: fold,copyprop,dse,cse,licm (empty = all)")
	doInline := flag.Bool("inline", false, "inline all non-recursive calls before analysing")
	showStats := flag.Bool("stats", false, "print the per-pass timing table")
	workers := flag.Int("workers", 0, "workers for the sharded load passes and the analysis traversals (0 = GOMAXPROCS)")
	jsonOut := flag.Bool("json", false, "emit the analysis as JSON (fs/fi/iter only)")
	watch := flag.Bool("watch", false, "re-analyse incrementally whenever the file changes, printing constant deltas")
	timeout := flag.Duration("timeout", 0, "analysis deadline; procedures unfinished at expiry degrade to the flow-insensitive solution (0 = none)")
	fuel := flag.Int("fuel", 0, "per-procedure step budget; a procedure exceeding it degrades to the flow-insensitive solution (0 = unlimited)")
	cacheDir := flag.String("cache-dir", "", "persistent summary cache directory; warm runs reuse on-disk procedure summaries (results are byte-identical with or without it)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()
	if err := checkMethod(*method, *jsonOut, *doOptimize, *watch); err != nil {
		fail("%v", err)
	}

	stopProf, err := bench.StartCPUProfile(*cpuprofile)
	if err != nil {
		fail("%v", err)
	}
	// fail() exits without running deferred calls, so flush the profiles
	// explicitly on every non-error return path via exit.
	exit := func() {
		stopProf()
		if err := bench.WriteHeapProfile(*memprofile); err != nil {
			fail("%v", err)
		}
	}
	defer exit()

	if *watch {
		// Watch mode owns its own file IO (with retry), so a file that
		// is momentarily unreadable at startup is not fatal here.
		if flag.NArg() == 0 {
			fail("-watch needs a file argument")
		}
		cfg, _ := icpConfig(*method, *floats, *returns, *workers, *timeout, *fuel, *cacheDir)
		watchLoop(flag.Arg(0), cfg, *showStats, 500*time.Millisecond)
	}

	loadOpts := fsicp.LoadOptions{Workers: *workers}
	var prog *fsicp.Program
	name := "<stdin>"
	if flag.NArg() > 0 {
		name = flag.Arg(0)
	}
	if fi, statErr := os.Stat(name); statErr == nil && fi.IsDir() {
		// A directory argument is a multi-file corpus (progen manifest or
		// every *.mf in lexical order).
		prog, err = fsicp.LoadDir(name, loadOpts)
	} else {
		var src []byte
		if flag.NArg() > 0 {
			src, err = os.ReadFile(name)
		} else {
			src, err = io.ReadAll(os.Stdin)
		}
		if err != nil {
			fail("%v", err)
		}
		prog, err = fsicp.LoadWith(name, string(src), loadOpts)
	}
	if err != nil {
		fail("%v", err)
	}
	if !*jsonOut {
		fmt.Println(prog)
	}

	if *doInline {
		n, rec, growth := prog.Inline(4)
		fmt.Printf("inlined %d call sites (%d skipped as recursive), CFG growth %.2fx\n", n, rec, growth)
	}

	if *dumpCG {
		fmt.Print(prog.DumpCallGraph())
	}
	if *showUse {
		use := prog.Use()
		for _, name := range prog.Procedures() {
			fmt.Printf("USE(%s) = %v\n", name, use[name])
		}
	}
	if *dumpIR {
		fmt.Print(prog.DumpIR())
	}

	if cfg, ok := icpConfig(*method, *floats, *returns, *workers, *timeout, *fuel, *cacheDir); ok {
		a := prog.Analyze(cfg)
		if *jsonOut {
			rep := report.Build(prog, a, cfg)
			if *doOptimize {
				opt, err := a.Optimize(parseOptPasses(*optPasses))
				if err != nil {
					fail("%v", err)
				}
				rep.Optimize = &opt
			}
			b, err := rep.Encode()
			if err != nil {
				fail("%v", err)
			}
			os.Stdout.Write(b)
			if *showStats {
				printStats(os.Stderr, a)
			}
			return
		}
		fmt.Printf("%s analysis in %v", cfg.Method, a.Duration())
		if n := a.UsedFlowInsensitiveFallback(); n > 0 {
			fmt.Printf(" (%d back edges used the flow-insensitive fallback)", n)
		}
		fmt.Println()
		printDegradations(a.Degradations())
		printConstants(a.Constants())
		if *showMetrics {
			cs := a.CallSiteMetrics()
			en := a.EntryMetrics()
			fmt.Printf("call sites: %d args, %d immediate, %d constant; globals: %d candidates, %d pairs (%d visible)\n",
				cs.Args, cs.Imm, cs.ConstArgs, cs.GlobCand, cs.GlobPairs, cs.GlobVis)
			fmt.Printf("entries: %d formals, %d constant; %d procedures; %d constant global entries\n",
				en.Formals, en.ConstFormals, en.Procs, en.GlobalEntries)
		}
		if *showSubst {
			s, f, u := a.Substitutions()
			fmt.Printf("substitutions: %d (folded branches %d, unreachable blocks %d)\n", s, f, u)
		}
		if *annotate {
			fmt.Print(a.AnnotatedListing())
		}
		if *doOptimize {
			rep, err := a.Optimize(parseOptPasses(*optPasses))
			if err != nil {
				fail("%v", err)
			}
			for _, p := range rep.Passes {
				fmt.Printf("optimize [%s]: %d entry assignments, %d folded, %d branches, %d blocks removed, %d instrs removed, %d copies propagated, %d dead stores, %d cse, %d hoisted\n",
					p.Pass, p.EntryAssignments, p.FoldedInstrs, p.FoldedBranches,
					p.RemovedBlocks, p.RemovedInstrs, p.CopiesPropagated, p.DeadStores, p.CSEReplaced, p.HoistedConsts)
			}
			fmt.Printf("optimize: %d instructions eliminated (%d removed outright), %d branches eliminated\n",
				rep.EliminatedInstrs(), rep.RemovedInstrs, rep.FoldedBranches)
			fmt.Print(prog.DumpIR())
		}
		if *showStats {
			printStats(os.Stdout, a)
		}
	} else {
		a := prog.AnalyzeJumpFunctions(jumpKinds[*method])
		fmt.Printf("%s jump functions\n", *method)
		printConstants(a.Constants())
		if *showSubst {
			fmt.Printf("substitutions: %d\n", a.Substitutions())
		}
	}

	if *run {
		r := prog.Run(nil)
		fmt.Print("--- program output ---\n", r.Output)
		if r.Err != nil {
			fail("runtime error: %v", r.Err)
		}
	}
}

// printStats writes the per-pass table and, when a cache was used, its
// hit/miss summary.
func printStats(w io.Writer, a *fsicp.Analysis) {
	fmt.Fprint(w, a.StatsTable())
	if cs := a.CacheStats(); !cs.Empty() {
		fmt.Fprintf(w, "cache: mem %d/%d hits, disk %d/%d hits, %d writes, %d evicted, %d corrupt\n",
			cs.MemHits, cs.MemHits+cs.MemMisses, cs.DiskHits, cs.DiskHits+cs.DiskMisses,
			cs.DiskWrites, cs.Evictions, cs.Corrupt)
	}
}

// parseOptPasses turns the -opt-passes list into pass options; an
// empty list selects every pass.
func parseOptPasses(list string) fsicp.OptimizeOptions {
	if list == "" {
		return fsicp.AllOptimizations()
	}
	var opts fsicp.OptimizeOptions
	for _, name := range strings.Split(list, ",") {
		switch strings.TrimSpace(name) {
		case "fold":
			opts.Fold = true
		case "copyprop":
			opts.CopyProp = true
		case "dse":
			opts.DSE = true
		case "cse":
			opts.CSE = true
		case "licm":
			opts.LICM = true
		case "":
		default:
			fail("unknown optimization pass %q (want fold, copyprop, dse, cse, licm)", name)
		}
	}
	return opts
}

// printDegradations reports the procedures that fell back to the
// flow-insensitive solution. The results remain sound — degradation
// loses precision only — so this is a notice, not an error.
func printDegradations(ds []fsicp.Degradation) {
	if len(ds) == 0 {
		return
	}
	fmt.Printf("%d degradation(s) — affected procedures use the flow-insensitive solution:\n", len(ds))
	for _, d := range ds {
		fmt.Printf("  %s\n", d)
	}
}

func printConstants(cs []fsicp.Constant) {
	if len(cs) == 0 {
		fmt.Println("no interprocedural constants found")
		return
	}
	fmt.Printf("%d interprocedural constants:\n", len(cs))
	for _, c := range cs {
		fmt.Printf("  %-20s %-12s = %-10s (%s)\n", c.Proc, c.Var, c.Value, c.Kind)
	}
}
