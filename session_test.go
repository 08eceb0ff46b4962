package fsicp_test

import (
	"strings"
	"testing"

	fsicp "fsicp"
	"fsicp/internal/progen"
)

// TestSessionDifferentialEditReplay is the incremental engine's
// correctness bar: over a sequence of random single-procedure edits,
// every Session.Analyze result must be byte-identical — constants,
// call sites, both metric sets, and the annotated listing — to a cold
// Load+Analyze of the same source, for every ICP method. The edits
// are literal mutations (moving constants through the solution) and
// occasional lexical-only edits (exercising whole-version reuse).
func TestSessionDifferentialEditReplay(t *testing.T) {
	const edits = 60
	configs := []fsicp.Config{
		{Method: fsicp.FlowInsensitive, PropagateFloats: true},
		{Method: fsicp.FlowSensitive, PropagateFloats: true},
		{Method: fsicp.FlowSensitive, PropagateFloats: true, ReturnConstants: true, ReturnsRefresh: true},
		{Method: fsicp.FlowSensitiveIterative, PropagateFloats: true},
	}
	base := progen.Generate(progen.Config{
		Seed: 7, Procs: 10, Globals: 5,
		AllowRecursion: true, AllowFloats: true,
	})

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
			src := base
			reusedEver := false
			for i := 0; i < edits; i++ {
				next := progen.Edit(src, int64(1000*i)+17)
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
// step must analyse flow-sensitively to the cold result.
func FuzzSessionUpdate(f *testing.F) {
	f.Add(stepZeroGood, stepZeroBad)
	f.Add(stepZeroGood, "# comment\n"+stepZeroGood)
	for seed := int64(1); seed <= 3; seed++ {
		a := progen.Generate(progen.Config{Seed: seed, Procs: 5, Globals: 3, AllowRecursion: seed == 2, AllowFloats: true})
		f.Add(a, progen.Edit(a, seed))
		f.Add(a, progen.Generate(progen.Config{Seed: seed + 10, Procs: 4, Globals: 2}))
	}
	cfg := fsicp.Config{Method: fsicp.FlowSensitive, PropagateFloats: true}
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
			if got, want := fingerprint(sess.Analyze(cfg)), fingerprint(cold.Analyze(cfg)); got != want {
				t.Fatalf("step %d: session diverged from cold load:\n%s\nwant:\n%s", i, got, want)
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
// re-analyses that procedure (and, through dirty-set closure, its
// callees — here none) while every other procedure's summary is
// reused.
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
	// main, a, b stay clean; only c re-runs.
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
