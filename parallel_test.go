package fsicp_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	fsicp "fsicp"
	"fsicp/internal/bench"
)

// fingerprint renders everything the facade can report about one
// analysis into a single string, so two runs can be compared
// byte-for-byte.
func fingerprint(a *fsicp.Analysis) string {
	var b strings.Builder
	for _, c := range a.Constants() {
		fmt.Fprintf(&b, "const %s.%s = %s (%s)\n", c.Proc, c.Var, c.Value, c.Kind)
	}
	fmt.Fprintf(&b, "callsites %+v\n", a.CallSiteMetrics())
	fmt.Fprintf(&b, "entries %+v\n", a.EntryMetrics())
	for _, cs := range a.CallSites() {
		fmt.Fprintf(&b, "site %s->%s %v reachable=%v\n", cs.Caller, cs.Callee, cs.Args, cs.Reachable)
	}
	b.WriteString(a.AnnotatedListing())
	return b.String()
}

func loadLargest(t *testing.T) *fsicp.Program {
	t.Helper()
	p := bench.SPECfp92()[0] // 013.spice2g6, the largest synthetic program
	prog, err := fsicp.Load(p.Name+".mf", bench.Build(p))
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestAnalyzeDeterministicAcrossWorkers asserts the analysis scheduler
// produces byte-identical results for every worker count: 5 runs each
// with Workers=1 and Workers=8 must agree on constants, metrics, call
// sites, and the annotated listing, for every method.
func TestAnalyzeDeterministicAcrossWorkers(t *testing.T) {
	prog := loadLargest(t)
	configs := []fsicp.Config{
		{Method: fsicp.FlowSensitive, PropagateFloats: true},
		{Method: fsicp.FlowSensitive, PropagateFloats: true, ReturnConstants: true},
		{Method: fsicp.FlowSensitiveIterative, PropagateFloats: true},
		{Method: fsicp.FlowInsensitive, PropagateFloats: true},
	}
	for _, cfg := range configs {
		cfg := cfg
		t.Run(cfg.Method.String(), func(t *testing.T) {
			var want string
			for run := 0; run < 5; run++ {
				for _, workers := range []int{1, 8} {
					c := cfg
					c.Workers = workers
					got := fingerprint(prog.Analyze(c))
					if want == "" {
						want = got
						continue
					}
					if got != want {
						t.Fatalf("run %d workers=%d diverged from the first run", run, workers)
					}
				}
			}
		})
	}
}

// TestConcurrentAnalyze asserts one loaded Program can be analysed from
// many goroutines at once (Analyze never mutates the program), and that
// concurrent runs with the same configuration still agree.
func TestConcurrentAnalyze(t *testing.T) {
	prog := loadLargest(t)
	configs := []fsicp.Config{
		{Method: fsicp.FlowSensitive, PropagateFloats: true, Workers: 1},
		{Method: fsicp.FlowSensitive, PropagateFloats: true, Workers: 4},
		{Method: fsicp.FlowSensitive, PropagateFloats: true, ReturnConstants: true, Workers: 2},
		{Method: fsicp.FlowSensitiveIterative, PropagateFloats: true, Workers: 4},
		{Method: fsicp.FlowInsensitive, PropagateFloats: true},
	}
	const rounds = 2
	got := make([]string, len(configs)*rounds)
	var wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		for i, cfg := range configs {
			wg.Add(1)
			go func(slot int, cfg fsicp.Config) {
				defer wg.Done()
				got[slot] = fingerprint(prog.Analyze(cfg))
			}(r*len(configs)+i, cfg)
		}
	}
	wg.Wait()
	for i := range configs {
		if got[i] != got[len(configs)+i] {
			t.Errorf("config %d: concurrent runs disagree", i)
		}
	}
	// The two flow-sensitive configs differ only in worker count, so
	// their results must match too.
	if got[0] != got[1] {
		t.Errorf("worker counts 1 and 4 disagree under concurrency")
	}
}

// TestStatsTable asserts Analysis.Stats reports the load passes and the
// analysis passes in execution order, and that the rendered table
// contains every pass name.
func TestStatsTable(t *testing.T) {
	prog := loadLargest(t)
	a := prog.Analyze(fsicp.Config{Method: fsicp.FlowSensitive, PropagateFloats: true, ReturnConstants: true, ReturnsRefresh: true})
	a.CallSiteMetrics()

	stats := a.Stats()
	order := map[string]int{}
	for i, st := range stats {
		if _, dup := order[st.Name]; !dup {
			order[st.Name] = i
		}
	}
	for _, seq := range [][2]string{
		{"parse", "sem"}, {"sem", "irbuild"}, {"irbuild", "callgraph"},
		{"callgraph", "alias"}, {"alias", "modref"}, {"modref", "clobbers"},
		{"clobbers", "FS"}, {"FS", "returns"}, {"returns", "returns-refresh"},
		{"returns-refresh", "metrics"},
	} {
		a, aok := order[seq[0]]
		b, bok := order[seq[1]]
		if !aok || !bok {
			t.Fatalf("missing pass %q or %q in stats %v", seq[0], seq[1], order)
		}
		if a >= b {
			t.Errorf("pass %q recorded at %d, after %q at %d", seq[0], a, seq[1], b)
		}
	}

	table := a.StatsTable()
	for name := range order {
		if !strings.Contains(table, name) {
			t.Errorf("stats table missing pass %q:\n%s", name, table)
		}
	}
	if !strings.Contains(table, "TOTAL") {
		t.Errorf("stats table missing TOTAL row:\n%s", table)
	}
}

// TestStatsRowsCountOwnDegradations asserts that, under a fuel budget
// that degrades procedures in both passes, the returns row and the
// returns-refresh row each report exactly the degradations their own
// pass recorded: neither row's count includes the other's.
func TestStatsRowsCountOwnDegradations(t *testing.T) {
	prog := loadLargest(t)
	a := prog.Analyze(fsicp.Config{Method: fsicp.FlowSensitive, PropagateFloats: true,
		ReturnConstants: true, ReturnsRefresh: true, Fuel: 60, Workers: 1})
	recorded := map[string]int{}
	for _, d := range a.Degradations() {
		recorded[d.Pass]++
	}
	rows := map[string]int{}
	for _, st := range a.Stats() {
		rows[st.Name] += st.Degraded
	}
	for _, pass := range []string{"returns", "returns-refresh"} {
		if recorded[pass] == 0 {
			t.Fatalf("fuel 60 degraded nothing in %s; the check needs degradations (recorded %v)", pass, recorded)
		}
		if rows[pass] != recorded[pass] {
			t.Errorf("%s row reports degraded=%d, its pass recorded %d", pass, rows[pass], recorded[pass])
		}
	}
}

// TestCallSitesReachability asserts CallSites reports a zero-argument
// call in a provably dead block as unreachable (it used to be reported
// reachable because no ⊤ argument value flagged it).
func TestCallSitesReachability(t *testing.T) {
	src := `program deadcall

proc main() {
  call driver(true)
}

proc ping() {
  print 1
}

proc live() {
  print 2
}

proc driver(flag bool) {
  if flag {
    call live()
  } else {
    call ping()
  }
}
`
	prog, err := fsicp.Load("deadcall.mf", src)
	if err != nil {
		t.Fatal(err)
	}
	a := prog.Analyze(fsicp.Config{Method: fsicp.FlowSensitive, PropagateFloats: true})
	seen := map[string]bool{}
	for _, cs := range a.CallSites() {
		seen[cs.Callee] = true
		switch cs.Callee {
		case "ping":
			if cs.Reachable {
				t.Errorf("zero-arg call to ping sits in a dead branch but is reported reachable")
			}
		case "live", "driver":
			if !cs.Reachable {
				t.Errorf("call to %s is live but reported unreachable", cs.Callee)
			}
		}
	}
	for _, want := range []string{"ping", "live", "driver"} {
		if !seen[want] {
			t.Fatalf("call site for %s not reported", want)
		}
	}
}

// TestMethodStringsRobust asserts the String methods never panic on
// out-of-range values.
func TestMethodStringsRobust(t *testing.T) {
	if got := fsicp.Method(42).String(); got != "unknown(42)" {
		t.Errorf("Method(42).String() = %q", got)
	}
	if got := fsicp.JumpFunctionKind(-1).String(); got != "unknown(-1)" {
		t.Errorf("JumpFunctionKind(-1).String() = %q", got)
	}
	if got := fsicp.FlowSensitive.String(); got != "flow-sensitive" {
		t.Errorf("FlowSensitive.String() = %q", got)
	}
	if got := fsicp.Polynomial.String(); got != "polynomial" {
		t.Errorf("Polynomial.String() = %q", got)
	}
}
