package incr

import (
	"math"
	"testing"

	"fsicp/internal/lattice"
	"fsicp/internal/sem"
	"fsicp/internal/val"
)

// chain builds inputs for main -> a -> b -> c (positions 0..3).
func chain() RunInputs {
	return RunInputs{
		ConfigKey:  "cfg",
		ProgramKey: "globals-v1",
		Procs: []ProcInput{
			{Name: "main", FP: "fp-main"},
			{Name: "a", FP: "fp-a"},
			{Name: "b", FP: "fp-b"},
			{Name: "c", FP: "fp-c"},
		},
	}
}

func commitAll(e *Engine, in RunInputs) {
	p := e.Begin(in)
	snap := &Snapshot{
		ConfigKey:  in.ConfigKey,
		ProgramKey: in.ProgramKey,
		Procs:      map[string]ProcState{},
	}
	for _, pi := range in.Procs {
		snap.Procs[pi.Name] = ProcState{FP: pi.FP, Summary: &ProcSummary{}}
	}
	p.Commit(snap)
}

// wantPrev checks which procedures found a previous summary: exactly
// those committed under the same config, program and procedure key.
func wantPrev(t *testing.T, p *Plan, want []bool) {
	t.Helper()
	if len(p.Prev) != len(want) {
		t.Fatalf("len(Prev) = %d, want %d", len(p.Prev), len(want))
	}
	for i, w := range want {
		if (p.Prev[i] != nil) != w {
			t.Errorf("Prev[%d] present = %v, want %v", i, p.Prev[i] != nil, w)
		}
	}
}

func TestBeginNoSnapshotAllDirty(t *testing.T) {
	e := NewEngine()
	wantPrev(t, e.Begin(chain()), []bool{false, false, false, false})
}

func TestCleanUnchangedRun(t *testing.T) {
	e := NewEngine()
	commitAll(e, chain())
	wantPrev(t, e.Begin(chain()), []bool{true, true, true, true})

	// Only the edited procedure's key misses. Its callers and callees
	// keep their previous summaries; whether those stand is decided
	// per run by Stands, against freshly built entry environments.
	in := chain()
	in.Procs[1].FP = "fp-a-v2"
	wantPrev(t, e.Begin(in), []bool{true, false, true, true})
}

func TestConfigOrProgramKeyChangeDirtiesAll(t *testing.T) {
	e := NewEngine()
	commitAll(e, chain())

	in := chain()
	in.ConfigKey = "cfg2"
	wantPrev(t, e.Begin(in), []bool{false, false, false, false})

	in = chain()
	in.ProgramKey = "globals-v2"
	wantPrev(t, e.Begin(in), []bool{false, false, false, false})
}

func TestNewProcDirtyOthersClean(t *testing.T) {
	e := NewEngine()
	commitAll(e, chain())

	in := chain()
	in.Procs = append(in.Procs, ProcInput{Name: "d", FP: "fp-d"})
	wantPrev(t, e.Begin(in), []bool{true, true, true, true, false})
}

// TestNonStructuralRunKeepsValueCache: a run that finds no previous
// summary (here under another procedure key, as after an edit) still
// reads and writes the value cache, keyed by (pass, procedure, key,
// environment digest).
func TestNonStructuralRunKeepsValueCache(t *testing.T) {
	e := NewEngine()
	commitAll(e, chain())

	in := chain()
	in.Procs[1].FP = "fp-a-v2"
	p := e.Begin(in)
	sum := &ProcSummary{Dead: true}
	p.Store("iter", "a", "fp-a-v2", "env1", sum)
	if got, ok := p.Lookup("iter", "a", "fp-a-v2", "env1"); !ok || got != sum {
		t.Fatalf("Lookup after Store = %v, %v", got, ok)
	}
	if _, ok := p.Lookup("iter", "a", "fp-a-v2", "env2"); ok {
		t.Fatal("Lookup with different input key must miss")
	}
	if p.Hits() != 1 || p.Misses() != 1 {
		t.Fatalf("Hits/Misses = %d/%d, want 1/1", p.Hits(), p.Misses())
	}
}

// TestStands pins the reuse rule: a summary stands only for a live
// (or dead) procedure matching its liveness, with the same back-edge
// count, binding exactly the environment's variables to bit-identical
// elements, and never when degraded.
func TestStands(t *testing.T) {
	x := &sem.Var{Name: "x", Kind: sem.KindFormal}
	g := &sem.Var{Name: "g", Kind: sem.KindGlobal}
	env := lattice.Env[*sem.Var]{x: lattice.Const(val.Real(0)), g: lattice.BottomElem()}
	base := func() *ProcSummary {
		return &ProcSummary{BackEdges: 1, Entry: map[string]lattice.Elem{
			"x": lattice.Const(val.Real(0)),
			"g": lattice.BottomElem(),
		}}
	}
	if !base().Stands(env, true, 1) {
		t.Fatal("an identical summary must stand")
	}
	var none *ProcSummary
	if none.Stands(env, true, 1) {
		t.Error("a nil summary must not stand")
	}
	s := base()
	s.Degraded = true
	if s.Stands(env, true, 1) {
		t.Error("a degraded summary must not stand")
	}
	if base().Stands(env, false, 1) {
		t.Error("a live summary must not stand for a dead procedure")
	}
	s = base()
	s.Dead = true
	if s.Stands(env, true, 1) {
		t.Error("a dead summary must not stand for a live procedure")
	}
	if base().Stands(env, true, 0) {
		t.Error("a different back-edge count must not stand")
	}
	s = base()
	delete(s.Entry, "g")
	if s.Stands(env, true, 1) {
		t.Error("a summary missing a name must not stand")
	}
	s = base()
	s.Entry["y"] = lattice.BottomElem()
	delete(s.Entry, "g")
	if s.Stands(env, true, 1) {
		t.Error("a summary binding another name must not stand")
	}
	s = base()
	s.Entry["x"] = lattice.Const(val.Real(math.Copysign(0, -1)))
	if s.Stands(env, true, 1) {
		t.Error("-0.0 must not stand for 0.0")
	}
}

func TestProgramKeyChangeResetsValueCache(t *testing.T) {
	e := NewEngine()
	in := chain()
	p := e.Begin(in)
	p.Store("fs", "a", "fp-a", "env1", &ProcSummary{})
	commitAll(e, in)

	in2 := chain()
	in2.ProgramKey = "globals-v2"
	p2 := e.Begin(in2)
	if _, ok := p2.Lookup("fs", "a", "fp-a", "env1"); ok {
		t.Fatal("value cache must not survive a globals-section change")
	}
}

func TestCacheTwoGenerationSurvival(t *testing.T) {
	e := NewEngine()
	e.SetCacheLimit(1) // rotate on every commit so ageing is observable
	in := chain()
	p := e.Begin(in)
	p.Store("fs", "a", "fp-a", "env1", &ProcSummary{})
	commitAll(e, in) // rotation 1: entry moves to the old generation

	p = e.Begin(in)
	if _, ok := p.Lookup("fs", "a", "fp-a", "env1"); !ok {
		t.Fatal("entry must survive one rotation")
	}
	commitAll(e, in) // rotation 2: the touched entry was promoted

	p = e.Begin(in)
	if _, ok := p.Lookup("fs", "a", "fp-a", "env1"); !ok {
		t.Fatal("touched entry must survive the next rotation")
	}
	commitAll(e, in) // rotation: entry back to the old generation
	p = e.Begin(in)
	p.Store("fs", "b", "fp-b", "env1", &ProcSummary{}) // churn, entry untouched
	commitAll(e, in)                                   // rotation drops it

	p = e.Begin(in)
	if _, ok := p.Lookup("fs", "a", "fp-a", "env1"); ok {
		t.Fatal("untouched entry must age out after two rotations")
	}
}

// TestCacheBelowLimitNeverAges pins the deferred-collection behaviour:
// under the size limit, Commit must not evict anything, so an
// edit/undo alternation keeps hitting the cache indefinitely.
func TestCacheBelowLimitNeverAges(t *testing.T) {
	e := NewEngine()
	in := chain()
	p := e.Begin(in)
	p.Store("fs", "a", "fp-a", "env1", &ProcSummary{})
	commitAll(e, in)
	for i := 0; i < 5; i++ {
		commitAll(e, in) // repeated commits, entry never touched
	}
	p = e.Begin(in)
	if _, ok := p.Lookup("fs", "a", "fp-a", "env1"); !ok {
		t.Fatal("entry below the cache limit must survive arbitrary commits")
	}
}

func TestEnvKeyDistinguishesExactFloats(t *testing.T) {
	// Two adjacent float64 values that %g formatting may collapse.
	a := map[string]lattice.Elem{"x": lattice.Const(val.Real(1))}
	b := map[string]lattice.Elem{"x": lattice.Const(val.Real(math.Nextafter(1, 2)))}
	c := map[string]lattice.Elem{"x": lattice.Const(val.Real(1))}
	if EnvKey(a, true) == EnvKey(b, true) {
		t.Fatal("EnvKey must encode reals exactly")
	}
	if EnvKey(a, true) != EnvKey(c, true) {
		t.Fatal("EnvKey must be deterministic")
	}
	if EnvKey(a, true) == EnvKey(a, false) {
		t.Fatal("EnvKey must encode liveness")
	}
}

func TestEnvKeyOrderIndependent(t *testing.T) {
	a := map[string]lattice.Elem{
		"x": lattice.Const(val.Int(1)),
		"y": lattice.BottomElem(),
		"z": lattice.TopElem(),
	}
	b := map[string]lattice.Elem{
		"z": lattice.TopElem(),
		"y": lattice.BottomElem(),
		"x": lattice.Const(val.Int(1)),
	}
	if EnvKey(a, true) != EnvKey(b, true) {
		t.Fatal("EnvKey must not depend on map iteration order")
	}
}
