package modref_test

import (
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"fsicp/internal/alias"
	"fsicp/internal/callgraph"
	"fsicp/internal/ir"
	"fsicp/internal/irbuild"
	"fsicp/internal/modref"
	"fsicp/internal/parser"
	"fsicp/internal/progen"
	"fsicp/internal/sem"
	"fsicp/internal/source"
	"fsicp/internal/testutil"
)

// This file keeps the map-based worklist MOD/REF solver the bit rows
// replaced, unchanged but for returning its MayDef lists and global
// segments instead of installing them, as the reference the
// differential tests and FuzzModRef compare modref.Compute against.

// refSet is a set of variables (formals of one procedure and globals).
type refSet map[*sem.Var]bool

func (s refSet) Has(v *sem.Var) bool { return s[v] }

func (s refSet) Add(v *sem.Var) bool {
	if s[v] {
		return false
	}
	s[v] = true
	return true
}

// refInfo is the reference solution.
type refInfo struct {
	Mod, Ref, DMod, DRef map[*sem.Proc]refSet
	MayDef               map[*ir.CallInstr][]*sem.Var
	Segment              map[*ir.Func][]*sem.Var
}

func referenceSolve(prog *ir.Program, cg *callgraph.Graph, al *alias.Info) *refInfo {
	info := &refInfo{
		Mod:  make(map[*sem.Proc]refSet),
		Ref:  make(map[*sem.Proc]refSet),
		DMod: make(map[*sem.Proc]refSet),
		DRef: make(map[*sem.Proc]refSet),
	}
	for _, p := range cg.Reachable {
		dm, dr := refImmediate(prog.FuncOf[p])
		info.DMod[p], info.DRef[p] = dm, dr
		info.Mod[p] = copySet(dm)
		info.Ref[p] = copySet(dr)
	}

	// Worklist fixpoint over call edges, with alias closure folded in.
	// Effects flow callee→caller, so a procedure's incoming edges (as
	// callee) need reprocessing only after its own set grew; everything
	// starts dirty to seed the alias closure of the immediate sets.
	index := make(map[*sem.Proc]int, len(cg.Reachable))
	for i, p := range cg.Reachable {
		index[p] = i
	}
	intoCaller := make([][]int, len(cg.Reachable)) // callee index → edge indices
	for ei, e := range cg.Edges {
		ci := index[e.Callee]
		intoCaller[ci] = append(intoCaller[ci], ei)
	}
	queued := make([]bool, len(cg.Reachable))
	queue := make([]int, 0, len(cg.Reachable))
	enqueue := func(i int) {
		if !queued[i] {
			queued[i] = true
			queue = append(queue, i)
		}
	}
	for i := range cg.Reachable {
		enqueue(i)
	}
	for len(queue) > 0 {
		i := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		queued[i] = false
		p := cg.Reachable[i]
		if al != nil {
			closeUnderAliases(info.Mod[p], al, p)
			closeUnderAliases(info.Ref[p], al, p)
		}
		for _, ei := range intoCaller[i] {
			e := cg.Edges[ei]
			changed := propagate(info.Mod, e.Caller, e.Callee, e.Site)
			if propagate(info.Ref, e.Caller, e.Callee, e.Site) {
				changed = true
			}
			if changed {
				enqueue(index[e.Caller])
			}
		}
	}

	info.MayDef = refMayDef(cg, al, info)
	info.Segment = refSegments(prog, cg, info)
	return info
}

// refSegments returns each function's global segment:
// (REF*(p) ∪ MOD*(p) ∪ by-reference global actuals) ∩ globals, in
// declaration order; every global for a procedure unreachable from
// main.
func refSegments(prog *ir.Program, cg *callgraph.Graph, info *refInfo) map[*ir.Func][]*sem.Var {
	out := make(map[*ir.Func][]*sem.Var)
	for _, fn := range prog.Funcs {
		p := fn.Proc
		if cg.PosOf(p) < 0 {
			out[fn] = prog.Sem.Globals
			continue
		}
		mark := make(map[*sem.Var]bool)
		var gs []*sem.Var
		add := func(vs ...*sem.Var) {
			for _, v := range vs {
				if v != nil && v.IsGlobal() && !mark[v] {
					mark[v] = true
					gs = append(gs, v)
				}
			}
		}
		for v := range info.Ref[p] {
			add(v)
		}
		for v := range info.Mod[p] {
			add(v)
		}
		for _, call := range fn.Calls {
			add(call.ByRef...)
		}
		slices.SortFunc(gs, func(x, y *sem.Var) int { return x.Index - y.Index })
		out[fn] = gs
	}
	return out
}

func copySet(s refSet) refSet {
	out := make(refSet, len(s))
	for v := range s {
		out[v] = true
	}
	return out
}

// refImmediate collects the direct MOD/REF of one procedure from its
// IR through the generic Defs/Uses accessors.
func refImmediate(fn *ir.Func) (dmod, dref refSet) {
	dmod, dref = make(refSet), make(refSet)
	track := func(v *sem.Var) bool {
		return v.Kind == sem.KindFormal || v.Kind == sem.KindGlobal
	}
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if call, ok := in.(*ir.CallInstr); ok {
				if call.Dst != nil && track(call.Dst) {
					dmod[call.Dst] = true
				}
				continue
			}
			for _, v := range in.Defs() {
				if track(v) {
					dmod[v] = true
				}
			}
			for _, v := range in.Uses() {
				if track(v) {
					dref[v] = true
				}
			}
		}
		if b.Term != nil {
			for _, v := range b.Term.Uses() {
				if track(v) {
					dref[v] = true
				}
			}
		}
	}
	return dmod, dref
}

// propagate maps callee effects back through one call edge: globals
// carry over directly; formal effects carry to by-ref actuals that are
// formals or globals of the caller.
func propagate(sets map[*sem.Proc]refSet, caller, callee *sem.Proc, call *ir.CallInstr) bool {
	changed := false
	cs, ps := sets[callee], sets[caller]
	for v := range cs {
		if v.IsGlobal() {
			if ps.Add(v) {
				changed = true
			}
			continue
		}
		if v.Kind == sem.KindFormal && v.Owner == callee && v.Index < len(call.ByRef) {
			if a := call.ByRef[v.Index]; a != nil {
				if a.Kind == sem.KindFormal || a.IsGlobal() {
					if ps.Add(a) {
						changed = true
					}
				}
			}
		}
	}
	return changed
}

func closeUnderAliases(s refSet, al *alias.Info, p *sem.Proc) bool {
	changed := false
	var queue []*sem.Var
	for v := range s {
		queue = append(queue, v)
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, w := range al.Partners(p, v) {
			if s.Add(w) {
				changed = true
				queue = append(queue, w)
			}
		}
	}
	return changed
}

// refMayDef returns, per reachable call instruction, the caller
// variables the call may modify: by-ref actuals bound to modified
// formals, modified globals, and the alias partners of both, sorted by
// String().
func refMayDef(cg *callgraph.Graph, al *alias.Info, info *refInfo) map[*ir.CallInstr][]*sem.Var {
	lists := make(map[*ir.CallInstr][]*sem.Var)
	for _, e := range cg.Edges {
		call, callee, caller := e.Site, e.Callee, e.Caller
		seen := make(map[*sem.Var]bool)
		var out []*sem.Var
		add := func(v *sem.Var) {
			if v == nil || seen[v] || v == call.Dst {
				return
			}
			seen[v] = true
			out = append(out, v)
		}
		for i, a := range call.ByRef {
			if a == nil || i >= len(callee.Params) {
				continue
			}
			if info.Mod[callee].Has(callee.Params[i]) {
				add(a)
				if al != nil {
					for _, w := range al.Partners(caller, a) {
						add(w)
					}
				}
			}
		}
		for v := range info.Mod[callee] {
			if v.IsGlobal() {
				add(v)
				if al != nil {
					for _, w := range al.Partners(caller, v) {
						add(w)
					}
				}
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
		lists[call] = out
	}
	return lists
}

// checkAgainstReference solves prog's MOD/REF with modref.Compute and
// with the reference, and fails t on any difference: the four sets of
// every reachable procedure, every reachable call's MayDef list (order
// included), every function's global segment, and the RefGlobals
// lists. It then inserts the alias clobbers and checks a second solve
// over the rewritten IR, as icp.Prepare does after Clone or Inline.
func checkAgainstReference(t *testing.T, prog *ir.Program) {
	t.Helper()
	cg := callgraph.Build(prog)
	al := alias.Compute(prog, cg)
	for pass := 0; pass < 2; pass++ {
		mr := modref.Compute(prog, cg, al)
		ref := referenceSolve(prog, cg, al)
		for _, p := range cg.Reachable {
			sameSet(t, p, "MOD", mr.Mod(p), ref.Mod[p])
			sameSet(t, p, "REF", mr.Ref(p), ref.Ref[p])
			sameSet(t, p, "DMOD", mr.DMod(p), ref.DMod[p])
			sameSet(t, p, "DREF", mr.DRef(p), ref.DRef[p])
			var want []int32
			for _, v := range mr.Ref(p).Vars() {
				if v.IsGlobal() {
					want = append(want, int32(v.Index))
				}
			}
			if got := mr.RefGlobals(p); !slices.Equal(got, want) {
				t.Fatalf("RefGlobals(%s) = %v, want %v", p.Name, got, want)
			}
		}
		for _, e := range cg.Edges {
			if got, want := e.Site.MayDef, ref.MayDef[e.Site]; !slices.Equal(got, want) {
				t.Fatalf("pass %d: %s's call of %s: MayDef %v, reference %v", pass, e.Caller.Name, e.Callee.Name, got, want)
			}
		}
		for _, fn := range prog.Funcs {
			if got, want := fn.Globals(), ref.Segment[fn]; !slices.Equal(got, want) {
				t.Fatalf("pass %d: %s's global segment %v, reference %v", pass, fn.Proc.Name, got, want)
			}
		}
		al.InsertClobbers(prog, cg)
	}
}

func sameSet(t *testing.T, p *sem.Proc, what string, got modref.Row, want refSet) {
	t.Helper()
	n := 0
	for _, v := range got.Vars() {
		if !want.Has(v) {
			t.Fatalf("%s(%s) has %s, which the reference lacks", what, p.Name, v)
		}
		n++
	}
	if n != len(want) || got.Len() != n {
		t.Fatalf("%s(%s) has %d members (Len %d), the reference %d", what, p.Name, n, got.Len(), len(want))
	}
}

// corpusConfig is the generator configuration of the cold-compile
// corpus (2,305 procedures, 392 globals).
func corpusConfig(seed int64) progen.ModuleConfig {
	return progen.ModuleConfig{Seed: seed, Modules: 24, ProcsPerModule: 96, Globals: 8,
		BlockData: 16, SCCSize: 4, FanOut: 8, MaxStmts: 4, AllowFloats: true}
}

func TestReferenceTestdataPrograms(t *testing.T) {
	paths, err := filepath.Glob("../../testdata/programs/*.mf")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no test programs: %v", err)
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(filepath.Base(path), func(t *testing.T) {
			checkAgainstReference(t, testutil.MustBuild(t, string(src)))
		})
	}
}

func TestReferenceColdCompileCorpora(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		files, _ := progen.GenerateModules(corpusConfig(seed))
		checkAgainstReference(t, testutil.MustBuild(t, progen.Flatten(files)))
	}
}

// TestReference10kCorpus checks the 10k-procedure corpus (progen
// -modules 32 -procs 320).
func TestReference10kCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-procedure corpus")
	}
	files, _ := progen.GenerateModules(progen.ModuleConfig{Seed: 1, Modules: 32, ProcsPerModule: 320})
	checkAgainstReference(t, testutil.MustBuild(t, progen.Flatten(files)))
}

// recursiveByRefGlobal is a recursive chain that passes a global by
// reference: the callee's formal aliases the global inside the cycle,
// so MOD and REF of every member reach the global only through the
// alias closure.
const recursiveByRefGlobal = `program chain
global g int = 1
global h int = 2
proc main() {
  use g, h
  call a(g, 3)
  print g
}
proc a(x int, n int) {
  use h
  if n > 0 {
    call b(x, n - 1)
  }
  print h
}
proc b(y int, m int) {
  use g
  y = m
  call a(y, m)
  call c(g)
}
proc c(z int) {
  print z
}
`

// FuzzModRef compares modref.Compute with the reference on a program:
// src when it compiles, or else a progen corpus from the seed and the
// configuration bits (SCC size, globals and fan-out).
func FuzzModRef(f *testing.F) {
	for _, name := range []string{"alias.mf", "mutual.mf"} {
		src, err := os.ReadFile(filepath.Join("../../testdata/programs", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src), int64(0), uint8(0), uint8(0), uint8(0))
	}
	f.Add(recursiveByRefGlobal, int64(0), uint8(0), uint8(0), uint8(0))
	f.Add("", int64(1), uint8(3), uint8(4), uint8(2))
	f.Add("", int64(7), uint8(5), uint8(1), uint8(4))
	f.Fuzz(func(t *testing.T, src string, seed int64, sccSize, globals, fanOut uint8) {
		if src == "" {
			files, _ := progen.GenerateModules(progen.ModuleConfig{
				Seed: seed, Modules: 2, ProcsPerModule: 8,
				SCCSize: int(sccSize%8) - 1, Globals: int(globals%12) - 1, BlockData: 2,
				FanOut: int(fanOut%6) + 1, MaxStmts: 4,
			})
			src = progen.Flatten(files)
		}
		prog, ok := tryBuild(src)
		if !ok {
			t.Skip("source does not compile")
		}
		checkAgainstReference(t, prog)
	})
}

// tryBuild compiles src, reporting false on any front-end error.
func tryBuild(src string) (*ir.Program, bool) {
	f := source.NewFile("fuzz.mf", src)
	astProg, err := parser.ParseFile(f)
	if err != nil {
		return nil, false
	}
	semProg, err := sem.Check(astProg, f)
	if err != nil {
		return nil, false
	}
	prog, err := irbuild.Build(semProg)
	return prog, err == nil
}
