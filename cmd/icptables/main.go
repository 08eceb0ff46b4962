// Command icptables regenerates every table and figure of the paper's
// evaluation section on the synthetic SPEC suite:
//
//	icptables -table all      # everything (default)
//	icptables -table 1        # Table 1: call-site candidates, SPECfp92
//	icptables -table 2        # Table 2: propagated constants, SPECfp92
//	icptables -table 3        # Table 3: call-site candidates, first release, floats off
//	icptables -table 4        # Table 4: propagated constants, first release, floats off
//	icptables -table 5        # Table 5: intraprocedural substitutions
//	icptables -table fig1     # Figure 1 per-method comparison
//	icptables -table time     # FI vs FS analysis time
//	icptables -table backedge # back-edge ratio sweep (§3.2)
//	icptables -table methods  # every method and baseline, run concurrently
//	icptables -table opt      # optimization pipeline: instrs/branches eliminated per method
//	icptables -table copyprop # copy-prop vs const-prop experiment (fold/copyprop/both)
//	icptables -json           # emit the opt table as JSON (only with -table opt)
//	icptables -stats          # also print the aggregated per-pass timing table
//	icptables -cache-dir d    # persistent summary cache for -table methods:
//	                          # warm runs reuse on-disk procedure summaries
//	                          # (identical precision columns, faster timings)
//	icptables -cpuprofile f   # write a pprof CPU profile of the run to f
//	icptables -memprofile f   # write a pprof heap profile to f on exit
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"fsicp/internal/bench"
	"fsicp/internal/driver"
	"fsicp/internal/tables"
)

func main() {
	table := flag.String("table", "all", "which table to regenerate: 1,2,3,4,5,fig1,time,backedge,inline,clone,iter,use,methods,opt,copyprop,all")
	iters := flag.Int("iters", 3, "timing iterations for -table time")
	depth := flag.Int("depth", 8, "chain depth for -table backedge")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON (only with -table opt)")
	stats := flag.Bool("stats", false, "print the aggregated per-pass timing table")
	timeout := flag.Duration("timeout", 0, "deadline for the methods matrix; analyses unfinished at expiry degrade to the flow-insensitive solution (0 = none)")
	cacheDir := flag.String("cache-dir", "", "persistent summary cache directory for the methods matrix; warm runs reuse on-disk procedure summaries (precision columns are identical, only timings change)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "icptables:", err)
		os.Exit(1)
	}

	stopProf, err := bench.StartCPUProfile(*cpuprofile)
	if err != nil {
		fail(err)
	}
	// fail() exits without running deferred calls, so the profiles only
	// flush on successful runs — a failed table regeneration leaves no
	// partial profile behind.
	defer func() {
		stopProf()
		if err := bench.WriteHeapProfile(*memprofile); err != nil {
			fmt.Fprintln(os.Stderr, "icptables:", err)
			os.Exit(1)
		}
	}()

	if *jsonOut && *table != "opt" {
		fail(fmt.Errorf("-json is only valid with -table opt"))
	}

	gctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		gctx, cancel = context.WithTimeout(gctx, *timeout)
		defer cancel()
	}

	var tr *driver.Trace
	if *stats {
		tr = driver.NewTrace()
	}

	var spec, first *tables.Suite
	needSpec := map[string]bool{"1": true, "2": true, "time": true, "all": true}
	needFirst := map[string]bool{"3": true, "4": true, "5": true, "all": true}
	if needSpec[*table] {
		if spec, err = tables.LoadSuite(bench.SPECfp92(), true, tr); err != nil {
			fail(err)
		}
	}
	if needFirst[*table] {
		if first, err = tables.LoadSuite(bench.FirstRelease(), false, tr); err != nil {
			fail(err)
		}
	}

	show := func(s string) { fmt.Println(s) }
	switch *table {
	case "1":
		show(spec.CallSiteTable("Table 1: interprocedural call site constant candidates (SPECfp92)"))
	case "2":
		show(spec.EntryTable("Table 2: interprocedural propagated constants (SPECfp92)"))
	case "3":
		show(first.CallSiteTable("Table 3: call site constant candidates (first-release SPEC, floats off)"))
	case "4":
		show(first.EntryTable("Table 4: propagated constants (first-release SPEC, floats off)"))
	case "5":
		show(first.SubstitutionTable("Table 5: intraprocedural substitutions (first-release SPEC, floats off)"))
	case "fig1":
		s, err := tables.Figure1Table()
		if err != nil {
			fail(err)
		}
		show(s)
	case "time":
		show(spec.TimingTable(*iters))
	case "backedge":
		show(tables.BackEdgeSweep(*depth))
	case "inline":
		s, err := tables.InlineTable(bench.FirstRelease(), false)
		if err != nil {
			fail(err)
		}
		show(s)
	case "clone":
		s, err := tables.CloneTable(bench.FirstRelease(), false)
		if err != nil {
			fail(err)
		}
		show(s)
	case "iter":
		s, err := tables.IterativeTable(bench.FirstRelease(), false)
		if err != nil {
			fail(err)
		}
		show(s)
	case "use":
		s, err := tables.UseTable(bench.SPECfp92())
		if err != nil {
			fail(err)
		}
		show(s)
	case "methods":
		s, err := tables.MethodMatrixTable(gctx, bench.SPECfp92(), true, *cacheDir)
		if err != nil {
			fail(err)
		}
		show(s)
	case "opt":
		if *jsonOut {
			b, err := tables.OptimizeJSON(bench.SPECfp92(), true)
			if err != nil {
				fail(err)
			}
			os.Stdout.Write(b)
			break
		}
		s, err := tables.OptimizeTable(bench.SPECfp92(), true)
		if err != nil {
			fail(err)
		}
		show(s)
	case "copyprop":
		s, err := tables.CopyPropTable(bench.SPECfp92(), true)
		if err != nil {
			fail(err)
		}
		show(s)
	case "all":
		s, err := tables.Figure1Table()
		if err != nil {
			fail(err)
		}
		show(s)
		show(spec.CallSiteTable("Table 1: interprocedural call site constant candidates (SPECfp92)"))
		show(spec.EntryTable("Table 2: interprocedural propagated constants (SPECfp92)"))
		show(first.CallSiteTable("Table 3: call site constant candidates (first-release SPEC, floats off)"))
		show(first.EntryTable("Table 4: propagated constants (first-release SPEC, floats off)"))
		show(first.SubstitutionTable("Table 5: intraprocedural substitutions (first-release SPEC, floats off)"))
		show(spec.TimingTable(*iters))
		show(tables.BackEdgeSweep(*depth))
		s2, err := tables.InlineTable(bench.FirstRelease(), false)
		if err != nil {
			fail(err)
		}
		show(s2)
		s3, err := tables.CloneTable(bench.FirstRelease(), false)
		if err != nil {
			fail(err)
		}
		show(s3)
		s4, err := tables.IterativeTable(bench.FirstRelease(), false)
		if err != nil {
			fail(err)
		}
		show(s4)
		s5, err := tables.UseTable(bench.SPECfp92())
		if err != nil {
			fail(err)
		}
		show(s5)
		s6, err := tables.MethodMatrixTable(gctx, bench.SPECfp92(), true, *cacheDir)
		if err != nil {
			fail(err)
		}
		show(s6)
		s7, err := tables.OptimizeTable(bench.SPECfp92(), true)
		if err != nil {
			fail(err)
		}
		show(s7)
		s8, err := tables.CopyPropTable(bench.SPECfp92(), true)
		if err != nil {
			fail(err)
		}
		show(s8)
	default:
		fail(fmt.Errorf("unknown table %q", *table))
	}

	if *stats {
		if len(tr.Passes()) == 0 {
			fmt.Println("no passes recorded (-stats instruments the suite-loading tables: 1,2,3,4,5,time,all)")
		} else {
			fmt.Println(tr.Table())
		}
	}
}
