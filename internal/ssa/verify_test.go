package ssa_test

import (
	"testing"

	"fsicp/internal/icp"
	"fsicp/internal/irbuild"
	"fsicp/internal/parser"
	"fsicp/internal/progen"
	"fsicp/internal/sem"
	"fsicp/internal/source"
	"fsicp/internal/ssa"
	"fsicp/internal/testutil"
)

func TestVerifyHandWritten(t *testing.T) {
	srcs := []string{
		`program p
proc main() {
  var x int = 1
  print x
}`,
		`program p
proc main() {
  var x int
  read x
  if x > 0 {
    x = 1
  } else {
    x = 2
  }
  while x > 0 {
    x = x - 1
  }
  print x
}`,
		`program p
global g int = 1
proc main() {
  use g
  var i int
  for i = 1, 5 {
    call f(i, g)
  }
}
proc f(a int, b int) {
  use g
  g = a + b
}`,
	}
	for i, src := range srcs {
		p := testutil.MustPrepare(t, src)
		for _, fn := range p.Funcs {
			s := ssa.Build(fn)
			if bad := s.Verify(); len(bad) > 0 {
				t.Errorf("case %d, %s: %v", i, fn.Proc.Name, bad[0])
			}
		}
	}
}

// TestVerifyWithMayDefs: the interesting case — call instructions with
// MayDef lists create extra definitions the verifier must accept.
func TestVerifyWithMayDefs(t *testing.T) {
	src := `program p
global g int = 1
proc main() {
  use g
  var x int = 2
  call mutate(x)
  print x, g
}
proc mutate(m int) {
  use g
  m = m + 1
  g = g + 1
}`
	prog := testutil.MustBuild(t, src)
	icp.Prepare(prog) // fills MayDef, inserts clobbers
	for _, fn := range prog.Funcs {
		s := ssa.Build(fn)
		if bad := s.Verify(); len(bad) > 0 {
			t.Errorf("%s: %v", fn.Proc.Name, bad[0])
		}
	}
}

// TestVerifyRandomPrograms checks the SSA invariants on every procedure
// of many generated programs (with the full interprocedural preparation
// applied, so calls carry MayDefs and alias clobbers exist).
func TestVerifyRandomPrograms(t *testing.T) {
	for seed := int64(700); seed < 740; seed++ {
		src := progen.Generate(progen.Config{Seed: seed, AllowRecursion: seed%2 == 0, AllowFloats: true})
		f := source.NewFile("gen.mf", src)
		astProg, err := parser.ParseFile(f)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := sem.Check(astProg, f)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := irbuild.Build(sp)
		if err != nil {
			t.Fatal(err)
		}
		icp.Prepare(prog)
		for _, fn := range prog.Funcs {
			s := ssa.Build(fn)
			if bad := s.Verify(); len(bad) > 0 {
				t.Fatalf("seed %d, %s: %s\nprogram:\n%s", seed, fn.Proc.Name, bad[0], src)
			}
		}
	}
}
