package incr

import (
	"math"
	"testing"

	"fsicp/internal/lattice"
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
// count, holding exactly the frame's slots as bit-identical elements,
// and never when degraded.
func TestStands(t *testing.T) {
	frame := func() []lattice.Elem {
		return []lattice.Elem{lattice.Const(val.Real(0)), lattice.BottomElem()}
	}
	env := frame()
	base := func() *ProcSummary {
		return &ProcSummary{BackEdges: 1, Entry: frame()}
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
	s.Entry = s.Entry[:1]
	if s.Stands(env, true, 1) {
		t.Error("a summary missing a slot must not stand")
	}
	s = base()
	s.Entry = append(s.Entry, lattice.BottomElem())
	if s.Stands(env, true, 1) {
		t.Error("a summary with an extra slot must not stand")
	}
	s = base()
	s.Entry[0], s.Entry[1] = s.Entry[1], s.Entry[0]
	if s.Stands(env, true, 1) {
		t.Error("a summary binding the values to other slots must not stand")
	}
	s = base()
	s.Entry[0] = lattice.Const(val.Real(math.Copysign(0, -1)))
	if s.Stands(env, true, 1) {
		t.Error("-0.0 must not stand for 0.0")
	}
}

// TestReturnsRecordStands pins the returns-stage rule: a record
// stands only when every call site's hooks answer bit-identically what
// they answered when it was computed, result and exit answers alike.
func TestReturnsRecordStands(t *testing.T) {
	five, zero := lattice.Const(val.Int(5)), lattice.Const(val.Real(0))
	rec := &ReturnsRecord{Calls: []CallAnswer{
		{Result: five, Exit: []lattice.Elem{zero, lattice.BottomElem()}},
		{Result: lattice.BottomElem()},
	}}
	// now answers as rec recorded, except at site k, MayDef position j
	// (j < 0: the result hook), where it answers e.
	now := func(k, j int, e lattice.Elem) (func(int) lattice.Elem, func(int, int) lattice.Elem) {
		return func(kk int) lattice.Elem {
				if kk == k && j < 0 {
					return e
				}
				return rec.Calls[kk].Result
			}, func(kk, jj int) lattice.Elem {
				if kk == k && jj == j {
					return e
				}
				return rec.Calls[kk].Exit[jj]
			}
	}
	if !rec.Stands(now(-1, 0, lattice.Elem{})) {
		t.Fatal("identical answers must stand")
	}
	var none *ReturnsRecord
	if none.Stands(now(-1, 0, lattice.Elem{})) {
		t.Error("a nil record must not stand")
	}
	for _, c := range []struct {
		name string
		k, j int
		e    lattice.Elem
	}{
		{"return value", 0, -1, lattice.Const(val.Int(6))},
		{"return now bottom (edge turned back)", 0, -1, lattice.BottomElem()},
		{"return now constant (edge turned forward)", 1, -1, five},
		{"exit value", 0, 1, five},
		{"-0.0 for 0.0", 0, 0, lattice.Const(val.Real(math.Copysign(0, -1)))},
		{"exit now bottom", 0, 0, lattice.BottomElem()},
	} {
		if rec.Stands(now(c.k, c.j, c.e)) {
			t.Errorf("%s: a changed answer must not stand", c.name)
		}
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
	e.store.(*MemStore).limit = 1 // rotate on every commit so ageing is observable
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
	a := []lattice.Elem{lattice.Const(val.Real(1))}
	b := []lattice.Elem{lattice.Const(val.Real(math.Nextafter(1, 2)))}
	c := []lattice.Elem{lattice.Const(val.Real(1))}
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

// TestEnvKeyIsPositional: a frame's key tells slots apart by position
// and frames apart by length.
func TestEnvKeyIsPositional(t *testing.T) {
	one, bot, top := lattice.Const(val.Int(1)), lattice.BottomElem(), lattice.TopElem()
	keys := map[string]string{}
	for name, frame := range map[string][]lattice.Elem{
		"empty":  nil,
		"1,⊥":    {one, bot},
		"⊥,1":    {bot, one},
		"⊥":      {bot},
		"⊥,⊥":    {bot, bot},
		"⊤":      {top},
		"1,⊥,⊤":  {one, bot, top},
		"1i,1.0": {one, lattice.Const(val.Real(1))},
		"1.0,1i": {lattice.Const(val.Real(1)), one},
	} {
		k := EnvKey(frame, true)
		if other, ok := keys[k]; ok {
			t.Errorf("frames %s and %s share a key", name, other)
		}
		keys[k] = name
	}
}

// TestEnvKeyPinned pins the EnvKey digests of one frame holding ⊤, ⊥,
// a negative int, -0.0, +Inf and false, live and dead. The digests
// were recorded before lattice elements were packed into 16 bytes; the
// value cache and the store key entries by them, so a change here
// silently turns every cached summary into a miss.
func TestEnvKeyPinned(t *testing.T) {
	frame := []lattice.Elem{
		lattice.TopElem(),
		lattice.BottomElem(),
		lattice.Const(val.Int(-7)),
		lattice.Const(val.Real(math.Copysign(0, -1))),
		lattice.Const(val.Real(math.Inf(1))),
		lattice.Const(val.Bool(false)),
	}
	for _, c := range []struct {
		live bool
		want string
	}{
		{true, "38b18567eb53ebfdead5224dd62b037a546ff8babb4b4f5a57119a4cf6cf039c"},
		{false, "4948d02bb511790940bb6be1283a16af634805d2ca6a527d78efdf330cd0cbe4"},
	} {
		if got := EnvKey(frame, c.live); got != c.want {
			t.Errorf("EnvKey(live=%v) = %s, want %s", c.live, got, c.want)
		}
	}
}
