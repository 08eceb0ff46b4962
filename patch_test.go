package fsicp_test

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"testing"

	fsicp "fsicp"
	"fsicp/internal/progen"
	"fsicp/internal/report"
)

// patchBase is the version every TestSessionPatchPath row edits: a
// call chain main → m → a, a by-reference global actual (b), a call
// whose two actuals differ (c), a procedure nothing calls (d), a
// function whose result is e's argument (f), and a procedure that
// reads a bool global and a real global without an initializer (w).
const patchBase = `program patch
global g int = 1
global h int = 2
global t bool = false
global u real
proc main() {
  use g
  var x int = 3
  var y int = 4
  call m(x)
  call b(g)
  call c(x, y)
  call e(f(3))
  call w()
  print x + y
}
proc m(p int) {
  call a(p)
}
proc a(p int) {
  print p + 1
}
proc b(q int) {
  q = q + 1
}
proc c(r int, s int) {
  r = 5
  print s
}
proc d() {
  use g
  call b(g)
}
proc e(v int) {
  print v
}
func f(k int) int {
  return k * 2
}
proc w() {
  use t, u
  if t {
    print u
  }
}
`

// patchEdit returns patchBase with old replaced by new once.
func patchEdit(t *testing.T, old, new string) string {
	t.Helper()
	if !strings.Contains(patchBase, old) {
		t.Fatalf("patchBase has no %q", old)
	}
	return strings.Replace(patchBase, old, new, 1)
}

// loadPath names the path Update took for p from its load rows: whole
// (every row Cached), patch (the front-end rows note built=N), or
// full; built is the parse row's N on a patch.
func loadPath(t *testing.T, p *fsicp.Program) (path string, built int) {
	t.Helper()
	a := p.Analyze(fsicp.Config{Method: fsicp.FlowInsensitive})
	path = "full"
	for _, st := range a.Stats() {
		switch st.Name {
		case "parse":
			if st.Cached {
				return "whole", 0
			}
			if strings.Contains(st.Notes, "built=") {
				path, built = "patch", passNote(a, "parse", "built")
			}
		case "sem", "irbuild":
			if n := passNote(a, st.Name, "built"); path == "patch" && n != built {
				t.Errorf("%s row notes built=%d, parse row built=%d", st.Name, n, built)
			}
		}
	}
	return path, built
}

// patchConfigs are the reports each row compares with a cold load.
var patchConfigs = []fsicp.Config{
	{Method: fsicp.FlowSensitive, PropagateFloats: true},
	{Method: fsicp.FlowSensitive, PropagateFloats: true, ReturnConstants: true},
	{Method: fsicp.FlowSensitiveIterative, PropagateFloats: true},
	{Method: fsicp.FlowInsensitive, PropagateFloats: true},
}

// checkMatchesCold compares the session's current version with a cold
// Load of src: the IR dump, per configuration the facade's listing and
// the daemon's report, and the jump-function baselines, with and
// without return jump functions.
func checkMatchesCold(t *testing.T, sess *fsicp.Session, src, step string) {
	t.Helper()
	cold, err := fsicp.Load("patch.mf", src)
	if err != nil {
		t.Fatalf("%s: cold load: %v", step, err)
	}
	if got, want := sess.Program().DumpIR(), cold.DumpIR(); got != want {
		t.Fatalf("%s: IR differs from a cold load\n--- session ---\n%s\n--- cold ---\n%s", step, got, want)
	}
	for _, cfg := range patchConfigs {
		inc, ref := sess.Analyze(cfg), cold.Analyze(cfg)
		if got, want := fingerprint(inc), fingerprint(ref); got != want {
			t.Fatalf("%s, %v returns=%v: analysis differs from a cold load\n--- session ---\n%s\n--- cold ---\n%s",
				step, cfg.Method, cfg.ReturnConstants, got, want)
		}
		got, _ := json.Marshal(report.Build(sess.Program(), inc, cfg))
		want, _ := json.Marshal(report.Build(cold, ref, cfg))
		if string(got) != string(want) {
			t.Fatalf("%s, %v returns=%v: report differs from a cold load\n%s\nwant\n%s", step, cfg.Method, cfg.ReturnConstants, got, want)
		}
	}
	if stale := fsicp.StaleKeys(sess.Program()); len(stale) > 0 {
		t.Fatalf("%s: memoized keys differ from fresh ones: %v", step, stale)
	}
	for _, kind := range []fsicp.JumpFunctionKind{fsicp.Literal, fsicp.IntraConstant, fsicp.PassThrough, fsicp.Polynomial} {
		for _, rets := range []bool{false, true} {
			jf := func(p *fsicp.Program) string {
				a := p.AnalyzeJumpFunctions(kind)
				if rets {
					a = p.AnalyzeJumpFunctionsWithReturns(kind)
				}
				return fmt.Sprintf("%v %d", a.Constants(), a.Substitutions())
			}
			if got, want := jf(sess.Program()), jf(cold); got != want {
				t.Fatalf("%s, jump functions %v returns=%v: %s, cold %s", step, kind, rets, got, want)
			}
		}
	}
}

// patchRow is one version pair of TestSessionPatchPath: an edit of
// patchBase.
type patchRow struct {
	name     string
	old, new string
	path     string // path of the update from patchBase, and back
	built    int
	irHas    string    // in the edited version's IR, not in the base's
	errPass  string    // the failing pass of an invalid edit
	also     [2]string // a second replacement in the same edit, when set
}

// edited returns patchBase with the row's replacements made once each,
// or "" when patchBase lacks one of them.
func (row patchRow) edited() string {
	src := patchBase
	for _, r := range [][2]string{{row.old, row.new}, row.also} {
		if r[0] == "" {
			continue
		}
		if !strings.Contains(src, r[0]) {
			return ""
		}
		src = strings.Replace(src, r[0], r[1], 1)
	}
	return src
}

// patchRows are the version pairs of TestSessionPatchPath;
// FuzzSessionUpdate seeds its corpus with them.
var patchRows = []patchRow{
	{name: "body literal", old: "print p + 1", new: "print p + 7", path: "patch", built: 1},
	{name: "print insertion", old: "print p + 1\n", new: "print p + 1\n  print 42\n", path: "patch", built: 1},
	{name: "main", old: "var x int = 3", new: "var x int = 6", path: "patch", built: 1},
	// d becomes reachable, and unreachable again on the way back.
	{name: "adds a call", old: "print p + 1\n", new: "print p + 1\n  call d()\n", path: "patch", built: 1,
		irHas: "call b(g) [maydef g]\n  ret\n\nfunc e"},
	// a's MOD and REF gain h: the reused m and main see h in their
	// segments and in the MayDef of their calls.
	{name: "grows MOD/REF", old: "proc a(p int) {\n  print p + 1", new: "proc a(p int) {\n  use h\n  h = p\n  print p + 1", path: "patch", built: 1,
		irHas: "call a(m.p) [maydef h]"},
	// e's REF gains g, which main's segment already holds and e does
	// not modify: only the REF list at main's call of e changes, and
	// with it main's key.
	{name: "grows REF", old: "proc e(v int) {\n  print v", new: "proc e(v int) {\n  use g\n  print v + g", path: "patch", built: 1},
	// c's formals alias: the reused c gains a clobber of s after
	// r = 5, and loses it on the way back.
	{name: "alias pair", old: "call c(x, y)", new: "call c(x, x)", path: "patch", built: 1,
		irHas: "clobber c.s"},
	// main's call of e takes f's result: the return jump function the
	// reused main's argument reads must be the new f's.
	{name: "function body", old: "return k * 2", new: "return k * 3", path: "patch", built: 1},
	// A caller and its callee both change.
	{name: "two bodies", old: "call a(p)\n}\nproc a(p int) {\n  print p + 1", new: "call a(p + 1)\n}\nproc a(p int) {\n  print p + 2", path: "patch", built: 2},
	// An initializer edit parses and checks the global declarations
	// again and reuses every procedure's front end.
	{name: "global initializer", old: "global g int = 1", new: "global g int = 5", path: "patch"},
	{name: "negated initializer", old: "global g int = 1", new: "global g int = -4", path: "patch"},
	{name: "bool initializer", old: "global t bool = false", new: "global t bool = true", path: "patch"},
	{name: "initializer and body", old: "global g int = 1\nglobal h int = 2", new: "global g int = 7\nglobal h int = 2",
		path: "patch", built: 1, also: [2]string{"print p + 1", "print p + 9"}},
	// A global gaining an initializer changes the initializers alone.
	{name: "gains an initializer", old: "global u real\n", new: "global u real = 2.5\n", path: "patch"},
	{name: "initializer type", old: "global g int = 1", new: "global g int = 1.5", errPass: "sem"},
	{name: "signature", old: "func f(k int) int {\n  return k * 2", new: "func f(n int) int {\n  return n * 2", path: "full"},
	{name: "parse error", old: "print p + 1", new: "print p +", errPass: "parse"},
	{name: "sem error", old: "print p + 1", new: "print p + nope", errPass: "sem"},
	{name: "irbuild error", old: "print p + 1\n", new: "print p + 1\n  var i int\n  for i = 1, 3, 0 {\n    print i\n  }\n", errPass: "irbuild"},
}

// TestSessionPatchPath drives one Update per row from patchBase, then
// one back, and checks which path each took and that the session
// matches a cold load after both. A body edit patches: only the
// changed procedure is parsed, checked and lowered, while the
// interprocedural passes run again, so a reused function gains or
// loses MayDef entries, segment globals and clobbers with the edit.
// An initializer edit patches too, with built=0: the global
// declarations are parsed and checked again and every procedure's
// front end is reused. A procedure header is part of the skeleton and
// takes the full load. An edit with a diagnostic returns exactly the
// cold error and leaves the session as it was.
func TestSessionPatchPath(t *testing.T) {
	for _, row := range patchRows {
		t.Run(row.name, func(t *testing.T) {
			edited := row.edited()
			if edited == "" || edited == patchBase {
				t.Fatalf("patchBase has no %q or %q", row.old, row.also[0])
			}
			sess, err := fsicp.NewSession("patch.mf", patchBase)
			if err != nil {
				t.Fatal(err)
			}
			for _, cfg := range patchConfigs {
				sess.Analyze(cfg) // engines hold the base version's results
			}
			if row.errPass != "" {
				_, coldErr := fsicp.Load("patch.mf", edited)
				if coldErr == nil || !strings.Contains(coldErr.Error(), "pass "+row.errPass) {
					t.Fatalf("cold load error = %v, want a %s diagnostic", coldErr, row.errPass)
				}
				key, dump := sess.SourceKey(), sess.Program().DumpIR()
				_, err := sess.Update(edited)
				if err == nil || err.Error() != coldErr.Error() {
					t.Fatalf("Update error = %v, want the cold error %q", err, coldErr)
				}
				if sess.Version() != 1 || sess.SourceKey() != key || sess.Program().DumpIR() != dump {
					t.Fatalf("the failed update changed the session (version %d)", sess.Version())
				}
				checkMatchesCold(t, sess, patchBase, "after the failed update")
				return
			}
			for _, step := range []struct{ name, src string }{{"edit", edited}, {"back", patchBase}} {
				p, err := sess.Update(step.src)
				if err != nil {
					t.Fatalf("%s: %v", step.name, err)
				}
				path, built := loadPath(t, p)
				if path != row.path || built != row.built {
					t.Errorf("%s: path %s built=%d, want %s built=%d", step.name, path, built, row.path, row.built)
				}
				if has := strings.Contains(p.DumpIR(), row.irHas); row.irHas != "" && has != (step.src == edited) {
					t.Errorf("%s: IR contains %q: %v", step.name, row.irHas, has)
				}
				checkMatchesCold(t, sess, step.src, step.name)
			}
		})
	}
}

// TestSessionRetiresEarlierVersions: a successful Update retires every
// earlier version's Program, whichever path it took, so analysing one
// fails (AnalyzeContext returns the error, Analyze panics with it),
// while the current version analyses; a failed Update retires
// nothing.
func TestSessionRetiresEarlierVersions(t *testing.T) {
	sess, err := fsicp.NewSession("patch.mf", patchBase)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fsicp.Config{Method: fsicp.FlowSensitive}
	var earlier []*fsicp.Program
	for _, src := range []string{
		patchEdit(t, "print p + 1", "print p + 2"),                                         // patch
		"# comment\n" + patchEdit(t, "print p + 1", "print p + 2"),                         // whole-version reuse
		patchEdit(t, "global g int = 1", "global g int = 2"),                               // initializer patch
		patchEdit(t, "func f(k int) int {\n  return k", "func f(n int) int {\n  return n"), // full load
	} {
		earlier = append(earlier, sess.Program())
		if _, err := sess.Update(src); err != nil {
			t.Fatal(err)
		}
		for i, old := range earlier {
			if a, err := old.AnalyzeContext(t.Context(), cfg); err == nil || a != nil {
				t.Errorf("version %d: AnalyzeContext on a retired program = %v, %v; want an error", i+1, a, err)
			}
		}
		if _, err := sess.Program().AnalyzeContext(t.Context(), cfg); err != nil {
			t.Fatalf("current version: %v", err)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Analyze on a retired program did not panic")
			}
		}()
		earlier[0].Analyze(cfg)
	}()
	cur := sess.Program()
	if _, err := sess.Update("program broken"); err == nil {
		t.Fatal("want an error from the bad update")
	}
	if _, err := cur.AnalyzeContext(t.Context(), cfg); err != nil {
		t.Errorf("a failed Update retired the current version: %v", err)
	}
}

// TestSessionUpdateHeapStable: 300 Updates alone, cycling a 20-version
// progen.Edit stream of program257, patch nearly every version; with
// the same version current after update 20 and update 300, the live
// heap after a collection must agree within 10%, so nothing of a
// replaced procedure survives its replacement.
func TestSessionUpdateHeapStable(t *testing.T) {
	if testing.Short() {
		t.Skip("300 updates of a 257-procedure program")
	}
	versions := []string{program257()}
	for i := int64(1); i < 20; i++ {
		versions = append(versions, progen.Edit(versions[i-1], i))
	}
	sess, err := fsicp.NewSessionWith("edit.mf", versions[0], fsicp.LoadOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	live := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var at20 uint64
	patched := 0
	for i := 1; i <= 300; i++ {
		p, err := sess.Update(versions[i%len(versions)])
		if err != nil {
			t.Fatal(err)
		}
		if i <= 20 {
			if path, _ := loadPath(t, p); path == "patch" {
				patched++
			}
		}
		if i == 20 {
			at20 = live()
		}
	}
	end := live()
	if patched < 10 {
		t.Fatalf("only %d of the first 20 updates patched", patched)
	}
	if float64(end) > 1.1*float64(at20) {
		t.Errorf("live heap %d after 300 updates, %d after 20: more than 10%% growth", end, at20)
	}
	runtime.KeepAlive(sess)
}
