// Package testutil provides shared helpers for compiling MiniFort
// snippets inside tests.
package testutil

import (
	"testing"

	"fsicp/internal/icp"
	"fsicp/internal/ir"
	"fsicp/internal/irbuild"
	"fsicp/internal/parser"
	"fsicp/internal/sem"
	"fsicp/internal/source"
)

// MustCheck parses and checks src, failing the test on any error.
func MustCheck(t testing.TB, src string) *sem.Program {
	t.Helper()
	f := source.NewFile("test.mf", src)
	prog, err := parser.ParseFile(f)
	if err != nil {
		t.Fatalf("parse failed: %v", err)
	}
	p, err := sem.Check(prog, f)
	if err != nil {
		t.Fatalf("check failed: %v", err)
	}
	return p
}

// MustBuild parses, checks, and lowers src to IR.
func MustBuild(t testing.TB, src string) *ir.Program {
	t.Helper()
	p := MustCheck(t, src)
	prog, err := irbuild.Build(p)
	if err != nil {
		t.Fatalf("irbuild failed: %v", err)
	}
	return prog
}

// MustPrepare is MustBuild followed by icp.Prepare's interprocedural
// phases. Their MOD/REF pass fills call MayDef sets and installs each
// function's global segment, without which a function tracks no
// globals at all.
func MustPrepare(t testing.TB, src string) *ir.Program {
	t.Helper()
	prog := MustBuild(t, src)
	icp.Prepare(prog)
	return prog
}

// FuncByName returns the IR function for the named procedure.
func FuncByName(t testing.TB, p *ir.Program, name string) *ir.Func {
	t.Helper()
	proc := p.Sem.ProcByName[name]
	if proc == nil {
		t.Fatalf("no procedure %q", name)
	}
	return p.FuncOf[proc]
}

// VarByName finds a variable (formal, local, or global) f tracks.
func VarByName(t testing.TB, f *ir.Func, name string) *sem.Var {
	t.Helper()
	for _, v := range f.AllVars {
		if v.Name == name {
			return v
		}
	}
	t.Fatalf("no variable %q in %s", name, f.Proc.Name)
	return nil
}
