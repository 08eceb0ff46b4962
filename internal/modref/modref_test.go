package modref_test

import (
	"testing"

	"fsicp/internal/alias"
	"fsicp/internal/callgraph"
	"fsicp/internal/ir"
	"fsicp/internal/modref"
	"fsicp/internal/sem"
	"fsicp/internal/testutil"
)

func compute(t *testing.T, src string) (*ir.Program, *callgraph.Graph, *modref.Info) {
	t.Helper()
	prog := testutil.MustBuild(t, src)
	cg := callgraph.Build(prog)
	al := alias.Compute(prog, cg)
	mr := modref.Compute(prog, cg, al)
	return prog, cg, mr
}

func hasNamed(r modref.Row, name string) bool {
	for _, v := range r.Vars() {
		if v.Name == name {
			return true
		}
	}
	return false
}

func TestDirectModRef(t *testing.T) {
	prog, _, mr := compute(t, `program p
global g int = 1
global h int = 2
proc main() {
  use g, h
  var x int
  g = 3
  x = h + 1
  print x
}`)
	main := prog.Sem.Main
	if !hasNamed(mr.Mod(main), "g") {
		t.Error("g must be in MOD(main)")
	}
	if hasNamed(mr.Mod(main), "h") {
		t.Error("h must not be in MOD(main)")
	}
	if !hasNamed(mr.Ref(main), "h") {
		t.Error("h must be in REF(main)")
	}
	if hasNamed(mr.Ref(main), "g") {
		t.Error("g is only written, not in REF(main)")
	}
}

func TestTransitiveGlobalMod(t *testing.T) {
	prog, _, mr := compute(t, `program p
global g int = 1
proc main() { call a() }
proc a() { call b() }
proc b() {
  use g
  g = 2
}`)
	for _, name := range []string{"main", "a", "b"} {
		if !hasNamed(mr.Mod(prog.Sem.ProcByName[name]), "g") {
			t.Errorf("g must be in MOD(%s)", name)
		}
	}
}

func TestFormalModMapsToActual(t *testing.T) {
	prog, _, mr := compute(t, `program p
global g int = 1
proc main() {
  use g
  call setit(g)
}
proc setit(f int) {
  f = 42
}`)
	setit := prog.Sem.ProcByName["setit"]
	if !hasNamed(mr.Mod(setit), "f") {
		t.Fatal("f must be in MOD(setit)")
	}
	// Through the by-ref binding, g is modified by main.
	if !hasNamed(mr.Mod(prog.Sem.Main), "g") {
		t.Error("g must be in MOD(main) via by-ref actual")
	}
}

func TestByValueActualNotModified(t *testing.T) {
	prog, _, mr := compute(t, `program p
global g int = 1
proc main() {
  use g
  call setit(g + 0)
}
proc setit(f int) {
  f = 42
}`)
	if hasNamed(mr.Mod(prog.Sem.Main), "g") {
		t.Error("expression actual must not expose g to modification")
	}
}

func TestFormalChainMod(t *testing.T) {
	prog, _, mr := compute(t, `program p
proc main() {
  var x int
  call a(x)
  print x
}
proc a(fa int) { call b(fa) }
proc b(fb int) { fb = 1 }`)
	a := prog.Sem.ProcByName["a"]
	if !hasNamed(mr.Mod(a), "fa") {
		t.Error("fa must be in MOD(a) via chain")
	}
	// main's local x is not in MOD(main)'s domain, but the call site
	// must record x as may-defined.
	f := prog.FuncOf[prog.Sem.Main]
	call := f.Calls[0]
	found := false
	for _, v := range call.MayDef {
		if v.Name == "x" {
			found = true
		}
	}
	if !found {
		t.Errorf("call a(x) must maydef x, got %v", call.MayDef)
	}
}

func TestRefTransitive(t *testing.T) {
	prog, _, mr := compute(t, `program p
global g int = 1
proc main() { call a() }
proc a() { call b() }
proc b() {
  use g
  print g
}`)
	for _, name := range []string{"main", "a", "b"} {
		if !hasNamed(mr.Ref(prog.Sem.ProcByName[name]), "g") {
			t.Errorf("g must be in REF(%s)", name)
		}
	}
}

func TestByRefActualRefOnlyIfFormalRef(t *testing.T) {
	prog, _, mr := compute(t, `program p
global g int = 1
global h int = 2
proc main() {
  use g, h
  call uses(g)
  call ignores(h)
}
proc uses(f int) { print f }
proc ignores(f int) { }`)
	main := prog.Sem.Main
	if !hasNamed(mr.Ref(main), "g") {
		t.Error("g referenced through uses()")
	}
	if hasNamed(mr.Ref(main), "h") {
		t.Error("h not referenced: ignores() never reads its formal")
	}
}

func TestRecursiveModConverges(t *testing.T) {
	prog, _, mr := compute(t, `program p
global g int = 0
proc main() { call r(3) }
proc r(n int) {
  use g
  if n > 0 {
    g = g + 1
    call r(n - 1)
  }
}`)
	r := prog.Sem.ProcByName["r"]
	if !hasNamed(mr.Mod(r), "g") || !hasNamed(mr.Ref(r), "g") {
		t.Error("recursive MOD/REF must include g")
	}
	if !hasNamed(mr.Mod(prog.Sem.Main), "g") {
		t.Error("MOD(main) must include g")
	}
}

func TestCallDstCountsAsMod(t *testing.T) {
	prog, _, mr := compute(t, `program p
global g int = 0
proc main() {
  use g
  g = f()
}
func f() int { return 1 }`)
	if !hasNamed(mr.Mod(prog.Sem.Main), "g") {
		t.Error("g assigned from function result must be in MOD(main)")
	}
}

func TestAliasWidensModAndMayDef(t *testing.T) {
	prog, _, mr := compute(t, `program p
global g int = 1
proc main() {
  use g
  call q(g)
}
proc q(f int) {
  use g
  f = 2
  print g
}`)
	q := prog.Sem.ProcByName["q"]
	// f aliases g inside q (actual is g), and f is assigned, so the
	// alias closure puts g in MOD(q).
	if !hasNamed(mr.Mod(q), "g") {
		t.Errorf("g must be in MOD(q) via alias closure: %v", mr.Mod(q).Vars())
	}
	// MayDef at the call must include g.
	call := prog.FuncOf[prog.Sem.Main].Calls[0]
	found := false
	for _, v := range call.MayDef {
		if v.Name == "g" && v.Kind == sem.KindGlobal {
			found = true
		}
	}
	if !found {
		t.Errorf("call q(g) must maydef g: %v", call.MayDef)
	}
}

func TestMayDefExcludesDst(t *testing.T) {
	prog, _, _ := compute(t, `program p
proc main() {
  var x int
  x = f(x)
  print x
}
func f(a int) int {
  a = 9
  return 1
}`)
	call := prog.FuncOf[prog.Sem.Main].Calls[0]
	for _, v := range call.MayDef {
		if v == call.Dst {
			t.Error("Dst must not appear in MayDef (result assignment wins)")
		}
	}
}
