package fsicp_test

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	fsicp "fsicp"
)

// loadFingerprint renders everything the front end produces — the IR
// dump, the call graph, and all seven method tables (FS, FI, iterative,
// plus the four jump-function baselines) — into one string, so loads
// with different worker counts can be compared byte-for-byte.
func loadFingerprint(prog *fsicp.Program) string {
	var b strings.Builder
	b.WriteString(prog.DumpIR())
	b.WriteString(prog.DumpCallGraph())
	for _, cfg := range []fsicp.Config{
		{Method: fsicp.FlowSensitive, PropagateFloats: true, ReturnConstants: true},
		{Method: fsicp.FlowInsensitive, PropagateFloats: true},
		{Method: fsicp.FlowSensitiveIterative, PropagateFloats: true},
	} {
		a := prog.Analyze(cfg)
		fmt.Fprintf(&b, "== %s ==\n%s", cfg.Method, fingerprint(a))
	}
	for _, kind := range []fsicp.JumpFunctionKind{
		fsicp.Literal, fsicp.IntraConstant, fsicp.PassThrough, fsicp.Polynomial,
	} {
		j := prog.AnalyzeJumpFunctions(kind)
		fmt.Fprintf(&b, "== jump %s ==\n", kind)
		for _, c := range j.Constants() {
			fmt.Fprintf(&b, "const %s.%s = %s (%s)\n", c.Proc, c.Var, c.Value, c.Kind)
		}
		fmt.Fprintf(&b, "subst %d\n", j.Substitutions())
	}
	return b.String()
}

// TestLoadDeterministicAcrossWorkers asserts the sharded load pipeline
// is invisible in the result: for every worker count the IR dump, the
// call graph, and all seven method tables are byte-identical to the
// serial load. Run under -race this also exercises the shard fan-out
// for data races.
func TestLoadDeterministicAcrossWorkers(t *testing.T) {
	name, src := largestProgen()
	var want string
	for _, workers := range []int{1, 2, 4, 8} {
		prog, err := fsicp.LoadWith(name, src, fsicp.LoadOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := loadFingerprint(prog)
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("workers=%d: load result diverged from workers=1", workers)
		}
	}
}

// TestLoadCancellation asserts a cancelled LoadContext fails with the
// context's error and drains every shard goroutine — nothing may keep
// lowering procedures after the caller has given up.
func TestLoadCancellation(t *testing.T) {
	name, src := largestProgen()
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	prog, err := fsicp.LoadContext(ctx, name, src, fsicp.LoadOptions{Workers: 4})
	if err == nil {
		t.Fatal("cancelled load succeeded")
	}
	if prog != nil {
		t.Fatal("cancelled load returned a program alongside its error")
	}
	if !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Errorf("cancelled load error = %v, want a context.Canceled", err)
	}

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked by cancelled load: %d before, %d after", before, after)
	}

	// The same source still loads fine with a live context.
	if _, err := fsicp.LoadContext(context.Background(), name, src, fsicp.LoadOptions{Workers: 4}); err != nil {
		t.Fatalf("follow-up load failed: %v", err)
	}
}

// TestLoadShardNotes asserts the sharded load passes report their
// fan-out ("shards=N workers=M") in the stats, and that the rendered
// table carries the notes without breaking its row alignment.
func TestLoadShardNotes(t *testing.T) {
	name, src := largestProgen()
	prog, err := fsicp.LoadWith(name, src, fsicp.LoadOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	a := prog.Analyze(fsicp.Config{Method: fsicp.FlowSensitive, PropagateFloats: true})

	sharded := map[string]bool{"irbuild": false, "alias": false, "modref": false, "clobbers": false}
	for _, st := range a.Stats() {
		if _, ok := sharded[st.Name]; !ok || st.Shards == 0 {
			continue
		}
		sharded[st.Name] = true
		if want := fmt.Sprintf("shards=%d workers=", st.Shards); !strings.Contains(st.Notes, want) {
			t.Errorf("pass %s: notes %q missing %q", st.Name, st.Notes, want)
		}
		if len(st.ShardWall) != st.Shards {
			t.Errorf("pass %s: %d shard wall times for %d shards", st.Name, len(st.ShardWall), st.Shards)
		}
	}
	for name, seen := range sharded {
		if !seen {
			t.Errorf("pass %s recorded no shards", name)
		}
	}

	table := a.StatsTable()
	if !strings.Contains(table, "shards=") {
		t.Errorf("stats table carries no shard notes:\n%s", table)
	}
	lines := strings.Split(strings.TrimRight(table, "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("stats table too short:\n%s", table)
	}
	// Every data row must start at the same column layout as the header
	// (left-aligned pass name, single-space separated columns) — a
	// shard note that broke the formatting would show up as a column
	// shift here.
	width := len(lines[0])
	for _, line := range lines[1:] {
		if len(line) < width-20 {
			t.Errorf("stats table row much narrower than header:\n%s", table)
			break
		}
	}
}
