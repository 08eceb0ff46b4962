package sem_test

import (
	"strings"
	"testing"

	"fsicp/internal/ast"
	"fsicp/internal/parser"
	"fsicp/internal/sem"
	"fsicp/internal/source"
)

func check(t *testing.T, src string) (*sem.Program, error) {
	t.Helper()
	f := source.NewFile("t.mf", src)
	prog, err := parser.ParseFile(f)
	if err != nil {
		t.Fatalf("parse failed: %v", err)
	}
	return sem.Check(prog, f)
}

func mustCheck(t *testing.T, src string) *sem.Program {
	t.Helper()
	p, err := check(t, src)
	if err != nil {
		t.Fatalf("check failed: %v", err)
	}
	return p
}

func TestCheckOK(t *testing.T) {
	p := mustCheck(t, `program demo
global g int = 7
global r real = -1.5
global b bool = false
proc main() {
  use g
  var x int = g + 1
  call sub(x, 2)
}
proc sub(a int, c int) {
  use r
  var y real
  y = r * 2.0
  print y, a + c
}
func inc(n int) int {
  return n + 1
}`)
	if p.Main == nil || p.Main.Name != "main" {
		t.Fatalf("main not found")
	}
	if len(p.Globals) != 3 {
		t.Errorf("globals: %d", len(p.Globals))
	}
	if got := p.GlobalInit[p.Globals[0]]; got.I != 7 {
		t.Errorf("g init: %v", got)
	}
	if got := p.GlobalInit[p.Globals[1]]; got.R != -1.5 {
		t.Errorf("r init: %v", got)
	}
	sub := p.ProcByName["sub"]
	if sub.NumFormals() != 2 || sub.Params[0].Name != "a" || sub.Params[0].Kind != sem.KindFormal {
		t.Errorf("sub params wrong: %+v", sub.Params)
	}
	if len(sub.Uses) != 1 || sub.Uses[0].Name != "r" {
		t.Errorf("sub uses wrong: %+v", sub.Uses)
	}
	inc := p.ProcByName["inc"]
	if !inc.IsFunc || inc.Result != ast.TypeInt {
		t.Errorf("inc: %+v", inc)
	}
}

func TestCheckErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"no main", "program p\nproc other() {}", "no procedure named 'main'"},
		{"main params", "program p\nproc main(a int) {}", "must not declare parameters"},
		{"main func", "program p\nfunc main() int { return 1 }", "must be a proc"},
		{"dup global", "program p\nglobal g int\nglobal g real\nproc main() {}", "redeclared"},
		{"dup proc", "program p\nproc main() {}\nproc f() {}\nproc f() {}", "redeclared"},
		{"dup param", "program p\nproc main() {}\nproc f(a int, a int) {}", "redeclared"},
		{"dup local", "program p\nproc main() { var x int\n var x int }", "redeclared"},
		{"undeclared var", "program p\nproc main() { x = 1 }", "undeclared variable"},
		{"invisible global", "program p\nglobal g int\nproc main() { g = 1 }", "use clause"},
		{"unknown use", "program p\nproc main() { use h }", "undeclared global"},
		{"use dup", "program p\nglobal g int\nproc main() { use g, g }", "twice"},
		{"type mismatch assign", "program p\nproc main() { var x int\n x = 1.5 }", "cannot assign"},
		{"type mismatch init", "program p\nglobal g int = 1.5\nproc main() {}", "does not match"},
		{"cond not bool", "program p\nproc main() { if 1 { } }", "must be bool"},
		{"arith on bool", "program p\nproc main() { var b bool\n b = true + false }", "invalid operand type"},
		{"mismatched operands", "program p\nproc main() { var x int\n x = 1 + 2.0 }", "mismatched operand"},
		{"mod on real", "program p\nproc main() { var r real\n r = 1.0 % 2.0 }", "invalid operand type"},
		{"unknown callee", "program p\nproc main() { call nope() }", "undeclared procedure"},
		{"arity", "program p\nproc main() { call f(1) }\nproc f(a int, b int) {}", "want 2"},
		{"arg type", "program p\nproc main() { call f(1.5) }\nproc f(a int) {}", "want int"},
		{"proc in expr", "program p\nproc main() { var x int\n x = f() }\nproc f() {}", "cannot appear in an expression"},
		{"return in proc", "program p\nproc main() { return 1 }", "cannot return a value"},
		{"bare return in func", "program p\nproc main() {}\nfunc f() int { return }", "must return a value"},
		{"return type", "program p\nproc main() {}\nfunc f() int { return 1.5 }", "cannot return"},
		{"break outside", "program p\nproc main() { break }", "break outside loop"},
		{"continue outside", "program p\nproc main() { continue }", "continue outside loop"},
		{"for var type", "program p\nproc main() { var r real\n for r = 1, 2 { } }", "must be int"},
		{"for bound type", "program p\nproc main() { var i int\n for i = 1, 2.5 { } }", "must be int"},
		{"local shadows global in use", "program p\nglobal g int\nproc main() { use g\n var g int }", "redeclared"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := check(t, c.src)
			if err == nil {
				t.Fatalf("expected error containing %q", c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q\n does not contain %q", err.Error(), c.want)
			}
		})
	}
}

func TestInfoMaps(t *testing.T) {
	p := mustCheck(t, `program p
global g int = 1
proc main() {
  use g
  var x int = g
  call f(x)
}
proc f(a int) {
  print a
}`)
	// Every Ident in an expression position resolves.
	nrefs, ncalls := 0, 0
	for _, q := range p.Procs {
		for id, v := range q.Refs {
			if v.Owner != nil && v.Owner != q {
				t.Errorf("%s: %s resolves to %s of another procedure", q.Name, id.Name, v)
			}
			nrefs++
		}
		for _, callee := range q.Callees {
			if callee.Name != "f" {
				t.Errorf("callee: %s", callee.Name)
			}
			ncalls++
		}
	}
	if nrefs < 3 { // use g, init g, arg x (+ print a)
		t.Errorf("too few resolved refs: %d", nrefs)
	}
	if ncalls != 1 {
		t.Errorf("calls: %d", ncalls)
	}
}

func TestBreakInsideLoopOK(t *testing.T) {
	mustCheck(t, `program p
proc main() {
  var i int
  while true {
    break
  }
  for i = 1, 3 {
    continue
  }
}`)
}

func TestRecursionAllowed(t *testing.T) {
	p := mustCheck(t, `program p
proc main() { call rec(3) }
proc rec(n int) {
  if n > 0 {
    call rec(n - 1)
  }
}`)
	if p.ProcByName["rec"] == nil {
		t.Fatal("rec missing")
	}
}

func TestTempCreation(t *testing.T) {
	p := mustCheck(t, `program p
proc main() { var x int }`)
	m := p.Main
	n0 := len(m.Locals)
	tv := m.NewTemp(ast.TypeReal)
	if tv.Kind != sem.KindTemp || tv.Type != ast.TypeReal {
		t.Errorf("temp: %+v", tv)
	}
	if len(m.Locals) != n0+1 {
		t.Errorf("temp not registered")
	}
}

func TestFuncAsCallStatement(t *testing.T) {
	// A function invoked as a statement discards its result — legal,
	// like Fortran calling a function for its side effects.
	mustCheck(t, `program p
global g int
proc main() {
  use g
  call bump()
}
func bump() int {
  use g
  g = g + 1
  return g
}`)
}

func TestUseClauseGrantsAssignment(t *testing.T) {
	p := mustCheck(t, `program p
global g int = 1
proc main() {
  use g
  g = 2
}`)
	if p.Main == nil {
		t.Fatal("main missing")
	}
}

func TestNegatedRealGlobalInit(t *testing.T) {
	p := mustCheck(t, `program p
global x real = -0.5
proc main() {}`)
	v := p.GlobalInit[p.Globals[0]]
	if v.R != -0.5 {
		t.Errorf("init: %v", v)
	}
}

func TestDoubleNegatedInitRejected(t *testing.T) {
	// The grammar allows exactly one optional leading minus in a
	// block-data initialiser; the parser rejects a second one.
	if _, err := parser.Parse("t.mf", "program p\nglobal x int = --7\nproc main() {}"); err == nil {
		t.Fatal("expected rejection of --7 initialiser")
	}
}
