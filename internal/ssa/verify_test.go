package ssa_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"fsicp/internal/icp"
	"fsicp/internal/ir"
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

// TestVerifyRandomPrograms checks the SSA invariants, and the φ
// placement against a map-keyed reference, on every procedure of many
// generated programs (with the full interprocedural preparation
// applied, so calls carry MayDefs and alias clobbers exist), plus one
// procedure whose blocks × tracked variables exceed 2²¹ — the size at
// which placement once switched to a sparse grid.
func TestVerifyRandomPrograms(t *testing.T) {
	for seed := int64(700); seed < 740; seed++ {
		src := progen.Generate(progen.Config{Seed: seed, AllowRecursion: seed%2 == 0, AllowFloats: true})
		verifyProgram(t, fmt.Sprintf("seed %d", seed), src)
	}
	fns := verifyProgram(t, "wide", wideProgram(600, 800))
	if fn := fns[0]; len(fn.Blocks)*len(fn.AllVars) <= 1<<21 {
		t.Fatalf("wide procedure has %d blocks × %d variables, want more than 2^21", len(fn.Blocks), len(fn.AllVars))
	}
}

// verifyProgram prepares src, builds SSA for every procedure, and
// fails on any invariant violation or placement mismatch. It returns
// the prepared functions.
func verifyProgram(t *testing.T, name, src string) []*ir.Func {
	t.Helper()
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
			t.Fatalf("%s, %s: %s\nprogram:\n%s", name, fn.Proc.Name, bad[0], src)
		}
		want := referencePhis(s)
		for _, b := range fn.Blocks {
			var got []*sem.Var
			for _, phi := range s.Phis[b.Index] {
				got = append(got, fn.AllVars[phi.Var])
			}
			if !slices.Equal(got, want[b]) {
				t.Fatalf("%s, %s: φs at %s are %v, reference placement gives %v", name, fn.Proc.Name, b, got, want[b])
			}
		}
	}
	return prog.Funcs
}

// referencePhis places φs the textbook way, with map-keyed sets: for
// each variable in AllVars order, the iterated dominance frontier of
// its definition blocks and the entry block (every variable has an
// entry definition). It returns each block's φ variables in placement
// order.
func referencePhis(s *ssa.SSA) map[*ir.Block][]*sem.Var {
	defBlocks := make(map[*sem.Var]map[*ir.Block]bool)
	for _, b := range s.Dom.RPO {
		for _, in := range b.Instrs {
			for _, v := range in.Defs() {
				if defBlocks[v] == nil {
					defBlocks[v] = make(map[*ir.Block]bool)
				}
				defBlocks[v][b] = true
			}
		}
	}
	out := make(map[*ir.Block][]*sem.Var)
	for _, v := range s.Fn.AllVars {
		queued := map[*ir.Block]bool{s.Dom.RPO[0]: true}
		for b := range defBlocks[v] {
			queued[b] = true
		}
		var work []*ir.Block
		for b := range queued {
			work = append(work, b)
		}
		idf := make(map[*ir.Block]bool)
		for len(work) > 0 {
			b := work[len(work)-1]
			work = work[:len(work)-1]
			for _, f := range s.Dom.Frontier(b) {
				idf[f] = true
				if !queued[f] {
					queued[f] = true
					work = append(work, f)
				}
			}
		}
		for b := range idf {
			out[b] = append(out[b], v)
		}
	}
	return out
}

// wideProgram returns one procedure with nvars locals and nifs
// one-armed conditionals, each assigning one local: a long CFG where
// every variable is tracked in every block's φ domain.
func wideProgram(nvars, nifs int) string {
	var b strings.Builder
	b.WriteString("program wide\n\nproc main() {\n  var c int\n  read c\n")
	for i := 0; i < nvars; i++ {
		fmt.Fprintf(&b, "  var v%d int = 0\n", i)
	}
	for i := 0; i < nifs; i++ {
		fmt.Fprintf(&b, "  if c == %d {\n    v%d = %d\n  }\n", i, i%nvars, i)
	}
	for i := 0; i < nvars; i++ {
		fmt.Fprintf(&b, "  print v%d\n", i)
	}
	b.WriteString("}\n")
	return b.String()
}
