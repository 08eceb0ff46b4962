package fsicp_test

import (
	"math/rand"
	"slices"
	"strconv"
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
		{Method: fsicp.FlowSensitive, PropagateFloats: true, ReturnConstants: true},
		{Method: fsicp.FlowSensitive, PropagateFloats: true, ReturnConstants: true, ReturnsRefresh: true},
		{Method: fsicp.FlowSensitiveIterative, PropagateFloats: true},
	}
	files, _ := progen.GenerateModules(progen.ModuleConfig{
		Seed: 7, Modules: 3, ProcsPerModule: 16, Globals: 5, BlockData: 4, AllowFloats: true,
	})
	base := progen.Flatten(files)
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
		if cfg.ReturnsRefresh {
			name += "+refresh"
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
				if got, want := sess.Program().DumpIR(), cold.DumpIR(); got != want {
					t.Fatalf("edit %d: session IR diverged from cold load\n--- session ---\n%s\n--- cold ---\n%s", i, got, want)
				}
				want := fingerprint(cold.Analyze(cfg))
				if got != want {
					t.Fatalf("edit %d: incremental result diverged from cold run\n--- incremental ---\n%s\n--- cold ---\n%s",
						i, got, want)
				}
				if stale := fsicp.StaleKeys(sess.Program()); cfg.Method != fsicp.FlowInsensitive && len(stale) > 0 {
					t.Fatalf("edit %d: memoized keys differ from fresh ones: %v", i, stale)
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

// Three edits that leave h's procedure key and entry environment
// unchanged, so its FS-stage summary stands, yet change what h's call
// hooks answer in the returns traversal: the returned constant of its
// callee f, the by-reference exit value of its callee setp, and
// whether its callee k is processed before it (editing main turns the
// DFS entry of the cycle a -> h -> k -> a from a to k, so h -> k
// becomes a back edge). h's returned constant shows each.
const (
	returnChangeV1 = `program retchange
proc main() {
  var y int = h()
  print y
}
func h() int {
  var x int = f()
  return x + 1
}
func f() int {
  return 5
}
`
	exitChangeV1 = `program exitchange
proc main() {
  var y int = h()
  print y
}
func h() int {
  var a int = 2
  call setp(a)
  return a
}
proc setp(p int) {
  p = 7
}
`
	edgeFlipV1 = `program flip
proc main() {
  call a()
}
proc a() {
  var t int = h()
  print t
}
func h() int {
  var r int = k()
  return r
}
func k() int {
  call a()
  return 3
}
`
)

var (
	returnChangeV2 = strings.Replace(returnChangeV1, "return 5", "return 7", 1)
	exitChangeV2   = strings.Replace(exitChangeV1, "p = 7", "p = 8", 1)
	edgeFlipV2     = strings.Replace(edgeFlipV1, "  call a()\n}\nproc a", "  var u int = k()\n  print u\n}\nproc a", 1)
)

// p's formal g shares its name with the global g, which p does not use
// but reaches through q's MOD set: p leaves both with constants, the
// formal 3 and the global 7, so h returns 73. Editing h alone keeps
// p's key, entry environment and call answers, so p keeps its returns
// record, whose exit environment must still tell the two apart.
const nameClashV1 = `program clash
global g int = 1
proc main() {
  var y int = h()
  print y
}
func h() int {
  use g
  var a int = 2
  call p(a)
  return a + g * 10
}
proc p(g int) {
  call q()
  g = 3
}
proc q() {
  use g
  g = 7
}
`

var nameClashV2 = strings.Replace(nameClashV1, "  call p(a)\n", "  print 0\n  call p(a)\n", 1)

// Passing the global g to p by reference, where v1 passed a local,
// aliases p's formal with g, which puts g into REF(p) and p's segment.
// p's IR does not change, so only the segment, which its key covers,
// tells v2's entry frame layout from v1's.
const segmentGrowthV1 = `program seg
global g int = 5
proc main() {
  use g
  var a int = 3
  call p(a)
}
proc p(x int) {
  print x
}
`

var segmentGrowthV2 = strings.Replace(segmentGrowthV1, "call p(a)", "call p(g)", 1)

// TestSessionStaleReuse replays the stale-reuse repros under every
// flow-sensitive configuration: v1, Analyze, Update(v2), Analyze must
// equal a cold Load(v2).
func TestSessionStaleReuse(t *testing.T) {
	repros := []struct{ name, v1, v2 string }{
		{"ref-growth", refGrowthV1, refGrowthV2},
		{"call-removal", callRemovalV1, callRemovalV2},
		{"return-change", returnChangeV1, returnChangeV2},
		{"exit-change", exitChangeV1, exitChangeV2},
		{"edge-flip", edgeFlipV1, edgeFlipV2},
		{"name-clash", nameClashV1, nameClashV2},
		{"segment-growth", segmentGrowthV1, segmentGrowthV2},
	}
	configs := []struct {
		name string
		cfg  fsicp.Config
	}{
		{"fs", fsicp.Config{Method: fsicp.FlowSensitive, PropagateFloats: true}},
		{"iter", fsicp.Config{Method: fsicp.FlowSensitiveIterative, PropagateFloats: true}},
		{"fs+returns", fsicp.Config{Method: fsicp.FlowSensitive, PropagateFloats: true, ReturnConstants: true}},
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

// p's formal g shares its name with the global g, which p reaches
// through q's REF set, so p's entry environment binds both: the formal
// 1 and the global 2 in v1, the formal 2 and the global 1 in v2.
// Keyed by name, they would collapse to one entry whose value depends
// on map order, so v2 could find v1's site values in the value cache
// and hand q the global 2; a frame keeps them in separate slots.
const entryClashV1 = `program clash
global g int = 1
proc main() {
  use g
  g = 2
  call p(1)
}
proc p(g int) {
  call q()
}
proc q() {
  use g
  print g
}
`

var entryClashV2 = strings.Replace(strings.Replace(entryClashV1, "  g = 2\n", "  g = 1\n", 1), "call p(1)", "call p(2)", 1)

// TestSessionEntryNameClash replays entryClash under both methods that
// consult the value cache. The stale hit depends on map order, so each
// configuration replays it on 32 fresh sessions.
func TestSessionEntryNameClash(t *testing.T) {
	if entryClashV2 == entryClashV1 {
		t.Fatal("the edit did not apply")
	}
	cold, err := fsicp.Load("t.mf", entryClashV2)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []fsicp.Config{
		{Method: fsicp.FlowSensitive, PropagateFloats: true},
		{Method: fsicp.FlowSensitiveIterative, PropagateFloats: true},
	} {
		want := fingerprint(cold.Analyze(cfg))
		for i := 0; i < 32; i++ {
			sess, err := fsicp.NewSession("t.mf", entryClashV1)
			if err != nil {
				t.Fatal(err)
			}
			sess.Analyze(cfg)
			if _, err := sess.Update(entryClashV2); err != nil {
				t.Fatal(err)
			}
			if got := fingerprint(sess.Analyze(cfg)); got != want {
				t.Fatalf("method %v, replay %d: incremental result diverged from cold run\n--- incremental ---\n%s\n--- cold ---\n%s", cfg.Method, i, got, want)
			}
		}
	}
}

// TestSessionRunCountsEverySCCRun: the FS row's run= counts every SCC
// run, entryClashV1's p included, whose formal and global share a name.
// A first Analyze builds SSA exactly for the procedures FS runs SCC on.
func TestSessionRunCountsEverySCCRun(t *testing.T) {
	sess, err := fsicp.NewSession("t.mf", entryClashV1)
	if err != nil {
		t.Fatal(err)
	}
	a := sess.Analyze(fsicp.Config{Method: fsicp.FlowSensitive, PropagateFloats: true})
	built := 0
	for _, s := range fsicp.ContextOf(sess.Program()).SSACache {
		if s != nil {
			built++
		}
	}
	if run := passNote(a, "FS", "run"); run != built {
		t.Errorf("run=%d for %d SCC runs", run, built)
	}
}

// loadPasses names every pass of the load pipeline, in order.
var loadPasses = []string{"parse", "sem", "irbuild", "callgraph", "alias", "modref", "clobbers"}

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

// TestSessionUpdateKeyedCurrentKey: UpdateKeyed with the sweep of a
// source whose key is the current version's takes Update's cached
// path: the new version shares the compiled context, and its load
// records repeat the current ones marked Cached.
func TestSessionUpdateKeyedCurrentKey(t *testing.T) {
	src := "program p\nglobal g int = 3\nproc main() {\n  use g\n  call q(g)\n}\nproc q(x int) {\n  print x\n}\n"
	sess, err := fsicp.NewSession("t.mf", src)
	if err != nil {
		t.Fatal(err)
	}
	before := sess.Program()
	next := "# heading\n" + src
	sw := fsicp.SweepSource(next)
	if sw.Fingerprint() != sess.SourceKey() {
		t.Fatal("a comment changed the source's key")
	}
	p, err := sess.UpdateKeyed(next, sw)
	if err != nil {
		t.Fatal(err)
	}
	if fsicp.ContextOf(p) != fsicp.ContextOf(before) {
		t.Error("UpdateKeyed under the current key rebuilt the program")
	}
	cached := map[string]bool{}
	for _, st := range p.Analyze(fsicp.Config{}).Stats() {
		cached[st.Name] = st.Cached
	}
	for _, name := range loadPasses {
		if !cached[name] {
			t.Errorf("pass %s was not marked Cached", name)
		}
	}
	if sess.Version() != 2 {
		t.Errorf("Version() = %d, want 2", sess.Version())
	}
}

// TestSessionUpdateKeyedMatchesUpdate: with a new version's sweep,
// UpdateKeyed reports exactly what Update does, version after version.
func TestSessionUpdateKeyedMatchesUpdate(t *testing.T) {
	files, _ := progen.GenerateModules(progen.ModuleConfig{Seed: 5, Modules: 2, ProcsPerModule: 12, Globals: 3, SCCSize: 2, AllowFloats: true})
	src := progen.Flatten(files)
	plain, err := fsicp.NewSession("e.mf", src)
	if err != nil {
		t.Fatal(err)
	}
	keyed, err := fsicp.NewSession("e.mf", src)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fsicp.Config{Method: fsicp.FlowSensitive, ReturnConstants: true}
	for i := 0; i < 6; i++ {
		next := progen.Edit(src, int64(31*i+7))
		_, errPlain := plain.Update(next)
		_, errKeyed := keyed.UpdateKeyed(next, fsicp.SweepSource(next))
		if (errPlain == nil) != (errKeyed == nil) {
			t.Fatalf("edit %d: Update error %v, UpdateKeyed error %v", i, errPlain, errKeyed)
		}
		if errPlain != nil {
			continue
		}
		src = next
		if plain.SourceKey() != keyed.SourceKey() || plain.Version() != keyed.Version() {
			t.Fatalf("edit %d: key or version differ", i)
		}
		if a, b := fingerprint(plain.Analyze(cfg)), fingerprint(keyed.Analyze(cfg)); a != b {
			t.Fatalf("edit %d: UpdateKeyed reports\n%s\nUpdate reports\n%s", i, b, a)
		}
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
// step must analyse to the cold result: flow-sensitively with and
// without return constants, and flow-sensitive-iteratively.
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
	f.Add(returnChangeV1, returnChangeV2)
	f.Add(nameClashV1, nameClashV2)
	for _, row := range patchRows {
		f.Add(patchBase, row.edited())
	}
	cfgs := []fsicp.Config{
		{Method: fsicp.FlowSensitive, PropagateFloats: true},
		{Method: fsicp.FlowSensitive, PropagateFloats: true, ReturnConstants: true},
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
			if got, want := sess.Program().DumpIR(), cold.DumpIR(); got != want {
				t.Fatalf("step %d: session IR diverged from cold load:\n%s\nwant:\n%s", i, got, want)
			}
			for _, cfg := range cfgs {
				if got, want := fingerprint(sess.Analyze(cfg)), fingerprint(cold.Analyze(cfg)); got != want {
					t.Fatalf("step %d, %v: session diverged from cold load:\n%s\nwant:\n%s", i, cfg.Method, got, want)
				}
			}
			if stale := fsicp.StaleKeys(sess.Program()); len(stale) > 0 {
				t.Fatalf("step %d: memoized keys differ from fresh ones: %v", i, stale)
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
// changes only that procedure's key, so it alone is keyed and
// re-analysed; every other procedure keeps its key and entry
// environment, and its previous summary stands. A whole-version reuse
// and an initializer-only edit key no procedure at all.
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
	if keyed := passNote(a, "incr-plan", "keyed"); keyed != 1 {
		t.Errorf("body edit: incr-plan keyed=%d, want 1", keyed)
	}
	edited := strings.Replace(src, "x * 2", "x * 3", 1)
	checkCold := func(step, src string, a *fsicp.Analysis) {
		t.Helper()
		cold, err := fsicp.Load("t.mf", src)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fingerprint(a), fingerprint(cold.Analyze(cfg)); got != want {
			t.Fatalf("%s: incremental diverged from cold:\n%s\n--- want ---\n%s", step, got, want)
		}
		if stale := fsicp.StaleKeys(sess.Program()); len(stale) > 0 {
			t.Fatalf("%s: memoized keys differ from fresh ones: %v", step, stale)
		}
	}
	checkCold("body edit", edited, a)
	_ = p2
	for _, step := range []struct{ name, src string }{
		{"whole-version reuse", "# note\n" + edited},
		{"initializer edit", strings.Replace(edited, "global g int = 2", "global g int = 5", 1)},
	} {
		if _, err := sess.Update(step.src); err != nil {
			t.Fatal(err)
		}
		a := sess.Analyze(cfg)
		if keyed := passNote(a, "incr-plan", "keyed"); keyed != 0 {
			t.Errorf("%s: incr-plan keyed=%d, want 0", step.name, keyed)
		}
		checkCold(step.name, step.src, a)
	}
}

// program257 is the 257-procedure program the SSA, program-key and
// edit-returns checks share: a flattened eight-module corpus with
// recursion, block data and floats.
func program257() string {
	files, _ := progen.GenerateModules(progen.ModuleConfig{
		Seed: 7, Modules: 8, ProcsPerModule: 32, Globals: 5, BlockData: 4, AllowFloats: true,
	})
	return progen.Flatten(files)
}

// passNote reads the integer a pass's stats notes record as key=N, or
// -1 when the pass or the key is missing.
func passNote(a *fsicp.Analysis, pass, key string) int {
	for _, st := range a.Stats() {
		if st.Name != pass {
			continue
		}
		for _, f := range strings.Fields(st.Notes) {
			if v, ok := strings.CutPrefix(f, key+"="); ok {
				if n, err := strconv.Atoi(v); err == nil {
					return n
				}
			}
		}
	}
	return -1
}

// TestSessionBuildsSSAOnlyWhereRead checks that an edit builds SSA
// only for the procedures some pass runs SCC on. FS runs it for every
// procedure whose previous summary does not stand and whose summary
// the value cache does not answer: its value-cache misses. With return
// constants on, the returns traversal runs it for every live procedure
// FS ran or took from the cache, and for those whose call answers
// changed. Both stats rows count their SCC runs as run=; only dead
// procedures are FS's alone.
func TestSessionBuildsSSAOnlyWhereRead(t *testing.T) {
	configs := []struct {
		name string
		cfg  fsicp.Config
	}{
		{"fs", fsicp.Config{Method: fsicp.FlowSensitive, PropagateFloats: true}},
		{"fs+returns", fsicp.Config{Method: fsicp.FlowSensitive, PropagateFloats: true, ReturnConstants: true}},
	}
	for _, c := range configs {
		t.Run(c.name, func(t *testing.T) {
			src := program257()
			sess, err := fsicp.NewSession("edit.mf", src)
			if err != nil {
				t.Fatal(err)
			}
			if n := len(sess.Program().Procedures()); n != 257 {
				t.Fatalf("program has %d reachable procedures, want 257", n)
			}
			sess.Analyze(c.cfg)
			for i := int64(1); i <= 5; i++ {
				prev := fsicp.ContextOf(sess.Program())
				src = progen.Edit(src, i)
				p, err := sess.Update(src)
				if err != nil {
					t.Fatalf("edit %d: %v", i, err)
				}
				// A reload starts with no SSA; a comment-only edit keeps
				// the previous version's context and the SSA built for it.
				ictx := fsicp.ContextOf(p)
				before := make([]bool, len(ictx.CG.Reachable))
				for k := range before {
					before[k] = ictx.SSACache != nil && ictx.SSACache[k] != nil
					if before[k] && ictx != prev {
						t.Fatalf("edit %d: the load built SSA for %s", i, ictx.CG.Reachable[k].Name)
					}
				}
				a := sess.Analyze(c.cfg)
				_, _, misses := a.Incremental()
				// run= counts SCC runs on the FS row as on the returns row.
				if run := passNote(a, "FS", "run"); run != misses {
					t.Errorf("edit %d: FS row says run=%d for %d SCC runs", i, run, misses)
				}
				res := fsicp.ResultOf(a)
				liveBuilt, deadBuilt := 0, 0
				for k := range ictx.CG.Reachable {
					switch {
					case before[k] || ictx.SSACache[k] == nil:
					case res.Dead(k):
						deadBuilt++
					default:
						liveBuilt++
					}
				}
				if !c.cfg.ReturnConstants {
					if built := liveBuilt + deadBuilt; built != misses {
						t.Errorf("edit %d: %d SSA forms built for %d SCC runs", i, built, misses)
					}
					continue
				}
				if run := passNote(a, "returns", "run"); liveBuilt != run || deadBuilt > misses {
					t.Errorf("edit %d: SSA built for %d live and %d dead procedures; returns ran SCC on %d, FS on %d",
						i, liveBuilt, deadBuilt, run, misses)
				}
			}
		})
	}
}

// TestSessionProgramKeyIgnoresGlobalInitializers: the program key
// covers the globals' layout, not their initial values, so editing one
// initializer keeps the snapshot and the value cache. Only main, whose
// entry environment the initializer seeds, re-runs; every other
// procedure's entry environment is unchanged and its summary stands.
func TestSessionProgramKeyIgnoresGlobalInitializers(t *testing.T) {
	src := program257()
	edited := strings.Replace(src, "global g1 int = 8\n", "global g1 int = 98\n", 1)
	if edited == src {
		t.Fatal("the initializer edit did not apply")
	}
	for _, cfg := range []fsicp.Config{
		{Method: fsicp.FlowSensitive, PropagateFloats: true},
		{Method: fsicp.FlowSensitive, PropagateFloats: true, ReturnConstants: true},
	} {
		sess, err := fsicp.NewSession("edit.mf", src)
		if err != nil {
			t.Fatal(err)
		}
		sess.Analyze(cfg)
		if _, err := sess.Update(edited); err != nil {
			t.Fatal(err)
		}
		a := sess.Analyze(cfg)
		if reused, _, misses := a.Incremental(); reused != 256 || misses != 1 {
			t.Errorf("returns=%v: reused=%d misses=%d, want reused=256 misses=1", cfg.ReturnConstants, reused, misses)
		}
		if cfg.ReturnConstants {
			if run := passNote(a, "returns", "run"); run < 0 || run > 2 {
				t.Errorf("returns traversal ran SCC on %d procedures, want at most 2", run)
			}
		}
		cold, err := fsicp.Load("edit.mf", edited)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fingerprint(a), fingerprint(cold.Analyze(cfg)); got != want {
			t.Fatalf("returns=%v: incremental diverged from cold:\n%s\n--- want ---\n%s", cfg.ReturnConstants, got, want)
		}
	}
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
