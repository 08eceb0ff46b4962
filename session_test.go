package fsicp_test

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	fsicp "fsicp"
	"fsicp/internal/progen"
)

// TestSessionDifferentialEditReplay is the incremental engine's
// correctness bar: over a sequence of random edits to an
// interprocedural program, every Session.Analyze result must be
// byte-identical — constants, call sites, both metric sets, and the
// annotated listing — to a cold Load+Analyze of the same source, for
// every ICP method. Edits alternate between progen.Edit (literal
// mutations that move constants through the solution, print
// insertions, and lexical-only edits that exercise whole-version
// reuse) and structuralEdit, which changes the call graph or a REF
// set.
func TestSessionDifferentialEditReplay(t *testing.T) {
	const edits = 60
	configs := []fsicp.Config{
		{Method: fsicp.FlowInsensitive, PropagateFloats: true},
		{Method: fsicp.FlowSensitive, PropagateFloats: true},
		{Method: fsicp.FlowSensitive, PropagateFloats: true, ReturnConstants: true, ReturnsRefresh: true},
		{Method: fsicp.FlowSensitiveIterative, PropagateFloats: true},
	}
	files, _ := progen.GenerateModules(progen.ModuleConfig{
		Seed: 7, Modules: 3, ProcsPerModule: 16, Globals: 5, BlockData: 4, AllowFloats: true,
	})
	base := flatten(files)
	prog, err := fsicp.Load("edit.mf", base)
	if err != nil {
		t.Fatal(err)
	}
	// Floors keep the replay interprocedural: many reachable
	// procedures, and recursion for the flow-insensitive fallback.
	if n := len(prog.Procedures()); n < 40 {
		t.Fatalf("base program has %d reachable procedures, want at least 40", n)
	}
	if back, _ := prog.BackEdges(); back < 1 {
		t.Fatalf("base program has %d back edges, want at least 1", back)
	}

	for _, cfg := range configs {
		cfg := cfg
		name := cfg.Method.String()
		if cfg.ReturnConstants {
			name += "+returns"
		}
		t.Run(name, func(t *testing.T) {
			sess, err := fsicp.NewSession("edit.mf", base)
			if err != nil {
				t.Fatal(err)
			}
			sess.Analyze(cfg)
			src := base
			reusedEver := false
			for i := 0; i < edits; i++ {
				var next string
				if seed := int64(1000*i) + 17; i%2 == 0 {
					next = progen.Edit(src, seed)
				} else {
					next = structuralEdit(src, seed)
				}
				if _, err := sess.Update(next); err != nil {
					// An edit can in principle produce a diagnostic;
					// keep the previous version and move on (the
					// session must survive a failed Update).
					continue
				}
				src = next

				inc := sess.Analyze(cfg)
				got := fingerprint(inc)

				cold, err := fsicp.Load("edit.mf", src)
				if err != nil {
					t.Fatalf("edit %d: cold load failed after incremental load succeeded: %v", i, err)
				}
				want := fingerprint(cold.Analyze(cfg))
				if got != want {
					t.Fatalf("edit %d: incremental result diverged from cold run\n--- incremental ---\n%s\n--- cold ---\n%s",
						i, got, want)
				}
				if r, h, _ := inc.Incremental(); r > 0 || h > 0 {
					reusedEver = true
				}
			}
			if cfg.Method != fsicp.FlowInsensitive && !reusedEver {
				t.Error("no procedure was ever reused across 60 edits; the incremental path is not engaging")
			}
		})
	}
}

// flatten joins a multi-module corpus into one source: the program
// header, then every global, then every procedure.
func flatten(files []progen.File) string {
	var head, globals, procs strings.Builder
	for _, f := range files {
		for _, line := range strings.SplitAfter(f.Src, "\n") {
			switch {
			case strings.HasPrefix(line, "program "):
				head.WriteString(line)
			case strings.HasPrefix(line, "module "):
			case strings.HasPrefix(line, "global "):
				globals.WriteString(line)
			default:
				procs.WriteString(line)
			}
		}
	}
	return head.String() + "\n" + globals.String() + procs.String()
}

// structuralEdit changes what flows between procedures rather than a
// value inside one: chosen by seed, it either deletes one call
// statement (a call edge disappears, possibly with the procedures
// only it reached) or adds a global to one procedure's use clause and
// prints it (the procedure's REF set, and so every caller's, grows).
func structuralEdit(src string, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	lines := strings.SplitAfter(src, "\n")
	var calls, procs []int
	var globals []string
	for i, l := range lines {
		switch {
		case strings.HasPrefix(strings.TrimSpace(l), "call "):
			calls = append(calls, i)
		case strings.HasPrefix(l, "proc "):
			procs = append(procs, i)
		case strings.HasPrefix(l, "global "):
			globals = append(globals, strings.Fields(l)[1])
		}
	}
	if rng.Intn(2) == 0 && len(calls) > 0 {
		i := calls[rng.Intn(len(calls))]
		return strings.Join(lines[:i], "") + strings.Join(lines[i+1:], "")
	}
	if len(procs) == 0 || len(globals) == 0 {
		return src
	}
	i := procs[rng.Intn(len(procs))]
	g := globals[rng.Intn(len(globals))]
	use := strings.TrimSpace(lines[i+1])
	printG := "  print " + g + "\n"
	switch {
	case !strings.HasPrefix(use, "use "):
		lines[i] += "  use " + g + "\n" + printG
	case slices.Contains(strings.Split(strings.TrimPrefix(use, "use "), ", "), g):
		lines[i+1] += printG
	default:
		lines[i+1] = "  " + use + ", " + g + "\n" + printG
	}
	return strings.Join(lines, "")
}

// Two edits on which inferring "unchanged entry environment" from the
// call graph went wrong: a callee's REF set grows under an unchanged
// caller, and a caller drops its call. Each v1 -> v2 pair must analyse
// incrementally exactly as a cold load of v2 does.
const (
	refGrowthV1 = `program refbug
global g int = 5
proc main() {
  use g
  call p()
}
proc p() {
  use g
  print g
  call c()
}
proc c() {
  print 1
}
`
	callRemovalV1 = `program edge
proc main() {
  call q()
  call p(2)
}
proc q() {
  call p(1)
}
proc p(x int) {
  print x
}
`
)

var (
	refGrowthV2   = strings.Replace(refGrowthV1, "proc c() {\n  print 1\n", "proc c() {\n  use g\n  print g\n", 1)
	callRemovalV2 = strings.Replace(callRemovalV1, "  call p(1)\n", "  print 0\n", 1)
)

// TestSessionStaleReuse replays both stale-reuse repros under every
// flow-sensitive configuration: v1, Analyze, Update(v2), Analyze must
// equal a cold Load(v2).
func TestSessionStaleReuse(t *testing.T) {
	repros := []struct{ name, v1, v2 string }{
		{"ref-growth", refGrowthV1, refGrowthV2},
		{"call-removal", callRemovalV1, callRemovalV2},
	}
	configs := []struct {
		name string
		cfg  fsicp.Config
	}{
		{"fs", fsicp.Config{Method: fsicp.FlowSensitive, PropagateFloats: true}},
		{"iter", fsicp.Config{Method: fsicp.FlowSensitiveIterative, PropagateFloats: true}},
		{"fs+returns+refresh", fsicp.Config{Method: fsicp.FlowSensitive, PropagateFloats: true, ReturnConstants: true, ReturnsRefresh: true}},
	}
	for _, r := range repros {
		if r.v1 == r.v2 {
			t.Fatalf("%s: the edit did not apply", r.name)
		}
		for _, c := range configs {
			t.Run(r.name+"/"+c.name, func(t *testing.T) {
				sess, err := fsicp.NewSession("t.mf", r.v1)
				if err != nil {
					t.Fatal(err)
				}
				sess.Analyze(c.cfg)
				if _, err := sess.Update(r.v2); err != nil {
					t.Fatal(err)
				}
				cold, err := fsicp.Load("t.mf", r.v2)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := fingerprint(sess.Analyze(c.cfg)), fingerprint(cold.Analyze(c.cfg)); got != want {
					t.Fatalf("incremental result diverged from cold run\n--- incremental ---\n%s\n--- cold ---\n%s", got, want)
				}
			})
		}
	}
}

// loadPasses names every pass of the load pipeline, in order.
var loadPasses = []string{"parse", "sem", "irbuild", "callgraph", "alias", "modref", "clobbers", "ssa"}

// TestSessionLoadPassReuse asserts whole-version reuse: a comment-only
// edit or an identical source reuses the compiled program, so every
// load pass, parse included, is recorded as cached and the next Analyze
// reuses every procedure; a semantic edit reloads everything.
func TestSessionLoadPassReuse(t *testing.T) {
	src := "program p\nglobal g int = 3\nproc main() {\n  use g\n  call q(g)\n}\nproc q(x int) {\n  print x\n}\n"
	sess, err := fsicp.NewSession("t.mf", src)
	if err != nil {
		t.Fatal(err)
	}
	cachedPasses := func(p *fsicp.Program) map[string]bool {
		out := map[string]bool{}
		a := p.Analyze(fsicp.Config{})
		for _, st := range a.Stats() {
			if st.Cached {
				out[st.Name] = true
			}
		}
		return out
	}
	cfg := fsicp.Config{Method: fsicp.FlowSensitive}
	sess.Analyze(cfg)
	dump := sess.Program().DumpIR()

	// Comment edit: same tokens, different source. Then an identical
	// source.
	for _, edit := range []string{"comment edit", "identical source"} {
		p, err := sess.Update("# heading\n" + src)
		if err != nil {
			t.Fatal(err)
		}
		got := cachedPasses(p)
		for _, name := range loadPasses {
			if !got[name] {
				t.Errorf("%s: pass %s was not reused", edit, name)
			}
		}
		if p.DumpIR() != dump {
			t.Errorf("%s: DumpIR changed", edit)
		}
		if r, _, _ := sess.Analyze(cfg).Incremental(); r != len(p.Procedures()) {
			t.Errorf("%s: Analyze reused %d of %d procedures", edit, r, len(p.Procedures()))
		}
	}

	// A semantic edit runs everything again.
	p, err := sess.Update(strings.Replace(src, "= 3", "= 4", 1))
	if err != nil {
		t.Fatal(err)
	}
	got := cachedPasses(p)
	for _, name := range loadPasses {
		if got[name] {
			t.Errorf("pass %s was reused although the program changed", name)
		}
	}
	if sess.Version() != 4 {
		t.Errorf("Version() = %d, want 4", sess.Version())
	}
}

// Step-0 sources: stepZeroBad passes the semantic check but fails
// lowering (a for-loop step must be a non-zero literal).
const (
	stepZeroGood = "program p\nglobal g int = 3\nproc main() {\n  use g\n  call q(g)\n}\nproc q(x int) {\n  print x\n}\n"
	stepZeroBad  = "program p\nglobal g int = 3\nproc main() {\n  use g\n  var i int\n  call q(g)\n  for i = 1, 3, 0 {\n    print i\n  }\n}\nproc q(x int) {\n  print x\n}\n"
)

// TestSessionRetriedFailedUpdate: a failing Update, retried, fails
// every time exactly as a cold Load does, and leaves the session's
// current version untouched; a later good Update still succeeds.
func TestSessionRetriedFailedUpdate(t *testing.T) {
	_, coldErr := fsicp.Load("t.mf", stepZeroBad)
	if coldErr == nil || !strings.Contains(coldErr.Error(), "pass irbuild") {
		t.Fatalf("cold load error = %v, want an irbuild diagnostic", coldErr)
	}
	sess, err := fsicp.NewSession("t.mf", stepZeroGood)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fsicp.Config{Method: fsicp.FlowSensitive}
	key, dump, consts := sess.SourceKey(), sess.Program().DumpIR(), fingerprintConstants(sess.Analyze(cfg))
	for i := 1; i <= 3; i++ {
		_, err := sess.Update(stepZeroBad)
		if err == nil || err.Error() != coldErr.Error() {
			t.Fatalf("update %d: err = %v, want the cold error %q", i, err, coldErr)
		}
		if strings.Contains(err.Error(), "panic") {
			t.Fatalf("update %d: error mentions a panic: %v", i, err)
		}
		if sess.Version() != 1 || sess.SourceKey() != key || sess.Program().DumpIR() != dump {
			t.Fatalf("update %d: the failed update changed the session (version %d)", i, sess.Version())
		}
		if got := fingerprintConstants(sess.Analyze(cfg)); got != consts {
			t.Fatalf("update %d: constants changed after a failed update:\n%s\nwant:\n%s", i, got, consts)
		}
	}
	edited := strings.Replace(stepZeroGood, "= 3", "= 5", 1)
	if _, err := sess.Update(edited); err != nil {
		t.Fatalf("good update after failed ones: %v", err)
	}
	cold, err := fsicp.Load("t.mf", edited)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fingerprint(sess.Analyze(cfg)), fingerprint(cold.Analyze(cfg)); got != want {
		t.Errorf("session diverged from cold load after failed updates:\n%s\nwant:\n%s", got, want)
	}
}

// FuzzSessionUpdate steps a session through NewSession(a), Update(b),
// Update(b), Update(a). Every step must fail exactly when a cold Load
// of its source fails, with the same message, and every successful
// step must analyse to the cold result, flow-sensitively and
// flow-sensitive-iteratively.
func FuzzSessionUpdate(f *testing.F) {
	f.Add(stepZeroGood, stepZeroBad)
	f.Add(stepZeroGood, "# comment\n"+stepZeroGood)
	for seed := int64(1); seed <= 3; seed++ {
		a := progen.Generate(progen.Config{Seed: seed, Procs: 5, Globals: 3, AllowRecursion: seed == 2, AllowFloats: true})
		f.Add(a, progen.Edit(a, seed))
		f.Add(a, progen.Generate(progen.Config{Seed: seed + 10, Procs: 4, Globals: 2}))
	}
	f.Add(refGrowthV1, refGrowthV2)
	f.Add(callRemovalV1, callRemovalV2)
	cfgs := []fsicp.Config{
		{Method: fsicp.FlowSensitive, PropagateFloats: true},
		{Method: fsicp.FlowSensitiveIterative, PropagateFloats: true},
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		var sess *fsicp.Session
		for i, src := range []string{a, b, b, a} {
			var err error
			if sess == nil {
				sess, err = fsicp.NewSession("f.mf", src)
			} else {
				_, err = sess.Update(src)
			}
			cold, coldErr := fsicp.Load("f.mf", src)
			if (err == nil) != (coldErr == nil) || (err != nil && err.Error() != coldErr.Error()) {
				t.Fatalf("step %d: err = %v, cold Load err = %v", i, err, coldErr)
			}
			if sess == nil {
				return // no session to step further
			}
			if err != nil {
				continue
			}
			for _, cfg := range cfgs {
				if got, want := fingerprint(sess.Analyze(cfg)), fingerprint(cold.Analyze(cfg)); got != want {
					t.Fatalf("step %d, %v: session diverged from cold load:\n%s\nwant:\n%s", i, cfg.Method, got, want)
				}
			}
		}
	})
}

// TestSessionSurvivesBadUpdate asserts a failed Update keeps the
// previous version usable.
func TestSessionSurvivesBadUpdate(t *testing.T) {
	src := "program p\nproc main() {\n  print 1\n}\n"
	sess, err := fsicp.NewSession("t.mf", src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Update("program p\nproc main() {\n  print undeclared\n}\n"); err == nil {
		t.Fatal("want an error from the bad update")
	}
	if sess.Version() != 1 {
		t.Errorf("Version() = %d after failed update, want 1", sess.Version())
	}
	a := sess.Analyze(fsicp.Config{Method: fsicp.FlowSensitive})
	if len(a.CallSites()) != 0 {
		t.Error("unexpected call sites in the single-proc program")
	}
}

// TestSessionSingleProcedureEditReusesOthers pins the headline
// behaviour on a concrete program: editing one leaf procedure's body
// changes only that procedure's key, so it alone is re-analysed; every
// other procedure keeps its key and entry environment, and its
// previous summary stands.
func TestSessionSingleProcedureEditReusesOthers(t *testing.T) {
	src := `program p
global g int = 2
proc main() {
  call a(1)
  call b(2)
  call c(3)
}
proc a(x int) {
  print x
}
proc b(x int) {
  use g
  print x + g
}
proc c(x int) {
  print x * 2
}
`
	sess, err := fsicp.NewSession("t.mf", src)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fsicp.Config{Method: fsicp.FlowSensitive}
	sess.Analyze(cfg) // cold run populates the snapshot

	// Edit only c's body.
	p2, err := sess.Update(strings.Replace(src, "x * 2", "x * 3", 1))
	if err != nil {
		t.Fatal(err)
	}
	a := sess.Analyze(cfg)
	reused, _, _ := a.Incremental()
	// main, a, b stand; only c re-runs.
	if reused != 3 {
		t.Errorf("reused %d procedures, want 3 (all but the edited one)", reused)
	}
	want := fingerprint(func() *fsicp.Analysis {
		cold, err := fsicp.Load("t.mf", strings.Replace(src, "x * 2", "x * 3", 1))
		if err != nil {
			t.Fatal(err)
		}
		return cold.Analyze(cfg)
	}())
	if got := fingerprint(a); got != want {
		t.Fatalf("incremental diverged from cold:\n%s\n--- want ---\n%s", got, want)
	}
	_ = p2
}

// TestDiffConstants covers the -watch delta helper.
func TestDiffConstants(t *testing.T) {
	before := []fsicp.Constant{
		{Proc: "a", Var: "x", Value: "1", Kind: "formal"},
		{Proc: "a", Var: "y", Value: "2", Kind: "formal"},
	}
	after := []fsicp.Constant{
		{Proc: "a", Var: "y", Value: "3", Kind: "formal"},
		{Proc: "b", Var: "z", Value: "4", Kind: "global"},
	}
	ds := fsicp.DiffConstants(before, after)
	var lines []string
	for _, d := range ds {
		lines = append(lines, d.String())
	}
	got := strings.Join(lines, "\n")
	want := "~ a.y = 3 (was 2)\n+ b.z = 4\n- a.x = 1"
	if got != want {
		t.Errorf("DiffConstants:\n%s\nwant:\n%s", got, want)
	}
	if len(fsicp.DiffConstants(after, after)) != 0 {
		t.Error("identical listings produced a non-empty diff")
	}
}
