package tables_test

import (
	"strconv"
	"strings"
	"testing"

	"fsicp/internal/bench"
	"fsicp/internal/icp"
	"fsicp/internal/tables"
)

func TestFigure1Table(t *testing.T) {
	s, err := tables.Figure1Table()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"FLOW-SENSITIVE   | f1, f2, f3, f4, f5",
		"FLOW-INSENSITIVE | f1, f3, f4",
		"LITERAL          | f1, f3",
		"INTRA            | f1, f3, f5",
		"PASS-THROUGH     | f1, f3, f4, f5",
		"POLYNOMIAL       | f1, f3, f4, f5",
	}
	for _, w := range want {
		if !strings.Contains(s, w) {
			t.Errorf("missing row %q in:\n%s", w, s)
		}
	}
}

func TestTables12Totals(t *testing.T) {
	suite, err := tables.LoadSuite(bench.SPECfp92(), true, nil)
	if err != nil {
		t.Fatal(err)
	}
	t1 := suite.CallSiteTable("Table 1")
	// The paper's totals, reproduced exactly.
	if !strings.Contains(t1, "TOTAL           | 5758 |  688 | 11.9% |  690 | 12.0% |  858 | 14.9%") {
		t.Errorf("table 1 totals wrong:\n%s", t1)
	}
	t2 := suite.EntryTable("Table 2")
	if !strings.Contains(t2, "TOTAL           | 1043 |   49 | 4.7% |   76 | 7.3%") {
		t.Errorf("table 2 totals wrong:\n%s", t2)
	}
	if !strings.Contains(t2, "|  56 | 172") {
		t.Errorf("table 2 global totals wrong:\n%s", t2)
	}
}

func TestTables34Totals(t *testing.T) {
	suite, err := tables.LoadSuite(bench.FirstRelease(), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	t3 := suite.CallSiteTable("Table 3")
	if !strings.Contains(t3, "TOTAL           |  861 |  114 | 13.2% |  114 | 13.2% |  212 | 24.6%") {
		t.Errorf("table 3 totals wrong:\n%s", t3)
	}
	t4 := suite.EntryTable("Table 4")
	if !strings.Contains(t4, "TOTAL           |  292 |   23 | 7.9% |   43 | 14.7%") {
		t.Errorf("table 4 totals wrong:\n%s", t4)
	}
}

func TestTable5Shape(t *testing.T) {
	suite, err := tables.LoadSuite(bench.FirstRelease(), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	t5 := suite.SubstitutionTable("Table 5")
	// Parse the TOTAL row: POLY, FI, FS — must satisfy FI < POLY < FS.
	var poly, fi, fs int
	for _, line := range strings.Split(t5, "\n") {
		if strings.HasPrefix(line, "TOTAL") {
			parts := strings.Split(line, "|")
			if len(parts) != 4 {
				t.Fatalf("bad total row: %q", line)
			}
			vals := []*int{&poly, &fi, &fs}
			for i, p := range parts[1:] {
				v, err := strconv.Atoi(strings.TrimSpace(p))
				if err != nil {
					t.Fatalf("parse %q: %v", p, err)
				}
				*vals[i] = v
			}
		}
	}
	if !(fi < poly && poly < fs) {
		t.Errorf("Table 5 ordering violated: FI=%d POLY=%d FS=%d\n%s", fi, poly, fs, t5)
	}
}

func TestBackEdgeSweepShape(t *testing.T) {
	s := tables.BackEdgeSweep(4)
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) < 7 {
		t.Fatalf("sweep too short:\n%s", s)
	}
	// First data row is the acyclic case: ratio 0.00 and FS > FI.
	if !strings.Contains(lines[3], "0.00") {
		t.Errorf("first row not acyclic: %q", lines[3])
	}
	// Every later row has a non-zero ratio.
	for _, l := range lines[4:] {
		if strings.Contains(l, "0.00") {
			t.Errorf("unexpected zero ratio: %q", l)
		}
	}
}

func TestTimingTableRuns(t *testing.T) {
	suite, err := tables.LoadSuite(bench.FirstRelease(), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := suite.TimingTable(1)
	if !strings.Contains(out, "TOTAL") || !strings.Contains(out, "FS/(FI+DEFER)") {
		t.Errorf("timing table malformed:\n%s", out)
	}
}

func TestExtensionTablesRun(t *testing.T) {
	inl, err := tables.InlineTable(bench.FirstRelease()[:1], false)
	if err != nil || !strings.Contains(inl, "GROWTH") {
		t.Errorf("inline table: %v\n%s", err, inl)
	}
	cl, err := tables.CloneTable(bench.FirstRelease()[:1], false)
	if err != nil || !strings.Contains(cl, "CLONES") {
		t.Errorf("clone table: %v\n%s", err, cl)
	}
	it, err := tables.IterativeTable(bench.FirstRelease()[:1], false)
	if err != nil || !strings.Contains(it, "ITER SCC RUNS") {
		t.Errorf("iterative table: %v\n%s", err, it)
	}
	us, err := tables.UseTable(bench.SPECfp92()[:2])
	if err != nil || !strings.Contains(us, "USE/REF") {
		t.Errorf("use table: %v\n%s", err, us)
	}
}

// TestIterativeEqualsOnePassOnSuite: the §3.2 equivalence on the real
// (acyclic) benchmark suite, not just random programs.
func TestIterativeEqualsOnePassOnSuite(t *testing.T) {
	for _, p := range bench.FirstRelease() {
		ctx, err := tables.Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		if ctx.CG.HasCycles() {
			t.Fatalf("%s: suite program unexpectedly cyclic", p.Name)
		}
		fs := icp.Analyze(ctx, icp.Options{Method: icp.FlowSensitive})
		iter := icp.Analyze(ctx, icp.Options{Method: icp.FlowSensitiveIterative})
		for _, q := range ctx.CG.Reachable {
			a := len(fs.ConstantFormals(q))
			b := len(iter.ConstantFormals(q))
			if a != b {
				t.Errorf("%s/%s: one-pass %d vs iterative %d", p.Name, q.Name, a, b)
			}
		}
		if iter.SCCRuns != len(ctx.CG.Reachable) {
			t.Errorf("%s: acyclic iterative used %d SCC runs for %d procs", p.Name, iter.SCCRuns, len(ctx.CG.Reachable))
		}
	}
}
