package icp

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"fsicp/internal/incr"
	"fsicp/internal/ir"
	"fsicp/internal/irbuild"
	"fsicp/internal/lattice"
	"fsicp/internal/parser"
	"fsicp/internal/progen"
	"fsicp/internal/sem"
	"fsicp/internal/source"
	"fsicp/internal/val"
)

// refMaps is the map form a Result reported before its call-site,
// liveness and returns results became positional.
type refMaps struct {
	argVals map[*ir.CallInstr][]lattice.Elem
	globals map[*ir.CallInstr]map[*sem.Var]val.Value
	visible map[*ir.CallInstr]map[*sem.Var]val.Value
	dead    map[*sem.Proc]bool
	exitEnv map[*sem.Proc]lattice.Env[*sem.Var]
}

func newRefMaps() *refMaps {
	return &refMaps{
		argVals: make(map[*ir.CallInstr][]lattice.Elem),
		globals: make(map[*ir.CallInstr]map[*sem.Var]val.Value),
		visible: make(map[*ir.CallInstr]map[*sem.Var]val.Value),
		dead:    make(map[*sem.Proc]bool),
	}
}

// refFI builds the maps as the flow-insensitive toResult did.
func refFI(ctx *Context, s *fiSolution) *refMaps {
	m := newRefMaps()
	for _, e := range ctx.CG.Edges {
		call := e.Site
		vals := make([]lattice.Elem, len(call.Args))
		for i := range call.Args {
			vals[i] = s.EdgeArg(call, i)
		}
		m.argVals[call] = vals
		var gm, vm map[*sem.Var]val.Value
		ref := ctx.MR.Ref(e.Callee)
		for g, v := range s.globalConsts {
			if ref.Has(g) {
				if gm == nil {
					gm = make(map[*sem.Var]val.Value)
				}
				gm[g] = v
				if e.Caller.UsesSet[g] {
					if vm == nil {
						vm = make(map[*sem.Var]val.Value)
					}
					vm[g] = v
				}
			}
		}
		m.globals[call], m.visible[call] = gm, vm
	}
	return m
}

// mergeSiteValues installs one procedure's call-site values as the
// flow-sensitive install did, from the summary it installed.
func (m *refMaps) mergeSiteValues(ctx *Context, opts Options, p *sem.Proc, sum *incr.ProcSummary) {
	if sum.Dead {
		m.dead[p] = true
	}
	for k, call := range ctx.Prog.FuncOf[p].Calls {
		sv := sum.Sites[k]
		vals := make([]lattice.Elem, len(call.Args))
		for i := range call.Args {
			if sv.Reachable {
				vals[i] = opts.filter(sv.Args[i])
			} else {
				vals[i] = lattice.TopElem()
			}
		}
		var gm, vm map[*sem.Var]val.Value
		if sv.Reachable && !sum.Dead {
			for j, gi := range sv.GlobIdx {
				gv := opts.filter(sv.GlobVals[j])
				if !gv.IsConst() {
					continue
				}
				g := ctx.Prog.Sem.Globals[gi]
				if gm == nil {
					gm = make(map[*sem.Var]val.Value)
				}
				gm[g] = gv.Val()
				if p.UsesSet[g] {
					if vm == nil {
						vm = make(map[*sem.Var]val.Value)
					}
					vm[g] = gv.Val()
				}
			}
		}
		m.argVals[call], m.globals[call], m.visible[call] = vals, gm, vm
	}
}

// exitMap converts an exit frame of fn to the map form ExitEnv
// reported: its constants, plus, when the procedure can return, the
// entry constants outside the segment.
func exitMap(fn *ir.Func, exit []lattice.Elem, canReturn bool, entry lattice.Env[*sem.Var]) lattice.Env[*sem.Var] {
	env := frameEnv(fn, exit)
	if canReturn {
		for v, e := range entry {
			if v.IsGlobal() && e.IsConst() && fn.VarOrd(v) < 0 {
				env[v] = e
			}
		}
	}
	return env
}

// compareWithMaps checks every accessor of res against the reference
// maps, and that Entry holds a map for every reachable procedure.
func compareWithMaps(t *testing.T, res *Result, m *refMaps) {
	t.Helper()
	for _, e := range res.CG.Edges {
		want := m.argVals[e.Site]
		if len(want) != len(e.Site.Args) {
			t.Fatalf("%s->%s: reference holds %d argument values for %d actuals", e.Caller.Name, e.Callee.Name, len(want), len(e.Site.Args))
		}
		for i, w := range want {
			if got := res.ArgVal(e, i); !got.Eq(w) {
				t.Fatalf("%s->%s: ArgVal(%d) = %v, map %v", e.Caller.Name, e.Callee.Name, i, got, w)
			}
		}
		gm, vm := map[*sem.Var]val.Value{}, map[*sem.Var]val.Value{}
		res.CallGlobals(e, func(g *sem.Var, v val.Value) {
			gm[g] = v
			if e.Caller.UsesSet[g] {
				vm[g] = v
			}
		})
		if !sameValues(gm, m.globals[e.Site]) || !sameValues(vm, m.visible[e.Site]) {
			t.Fatalf("%s->%s: CallGlobals %v (visible %v), maps %v (visible %v)",
				e.Caller.Name, e.Callee.Name, gm, vm, m.globals[e.Site], m.visible[e.Site])
		}
	}
	for i, p := range res.CG.Reachable {
		if res.Entry[p] == nil {
			t.Fatalf("%s: no Entry map", p.Name)
		}
		if res.Dead(i) != m.dead[p] {
			t.Fatalf("%s: Dead = %v, map %v", p.Name, res.Dead(i), m.dead[p])
		}
		if m.exitEnv == nil {
			continue
		}
		want := m.exitEnv[p]
		vars := append(append([]*sem.Var(nil), p.Params...), res.Ctx.Prog.Sem.Globals...)
		for v := range want {
			if !v.IsGlobal() && v.Owner != p {
				t.Fatalf("%s: reference exit binds %s", p.Name, v)
			}
		}
		for _, v := range vars {
			if got := res.ExitValue(i, v); !got.Eq(want.Get(v)) {
				t.Fatalf("%s: ExitValue(%s) = %v, map %v", p.Name, v, got, want.Get(v))
			}
		}
	}
}

func sameValues(a, b map[*sem.Var]val.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for g, v := range a {
		if w, ok := b[g]; !ok || !v.Equal(w) {
			return false
		}
	}
	return true
}

// TestPositionalResultsMatchMaps rebuilds the maps the Result used to
// carry — the call-site argument values and global candidates, the
// dead set and the exit environments — the way the install, the
// flow-insensitive conversion and the returns traversal built them,
// and checks every accessor against them: FI, FS, FS + returns, FS +
// returns + refresh and FS-iterative, floats on and off, at 1 and 4
// workers, on every sample program and the 2k-procedure corpus.
func TestPositionalResultsMatchMaps(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "programs", "*.mf"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("sample programs: %v", err)
	}
	type prog struct{ name, src string }
	var progs []prog
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, prog{filepath.Base(path), string(src)})
	}
	// main never returns, so the block-data constant k, outside its
	// segment, does not exit; the dead d stores a constant global
	// before a call whose callee reads it.
	progs = append(progs, prog{"edges.mf", `program edges
global g int = 1
global k int = 7
proc main() {
  use g
  if false {
    call d()
  }
  call h(2)
  while true {
    print g
  }
}
proc d() {
  use g
  g = 5
  call h(3)
}
proc h(a int) {
  use g
  print a, g
}`})
	if !testing.Short() {
		files, _ := progen.GenerateModules(progen.ModuleConfig{
			Seed: 20260808, Modules: 16, ProcsPerModule: 128,
			Globals: 8, BlockData: 16, SCCSize: 4, FanOut: 6, MaxStmts: 4,
			AllowFloats: true,
		})
		progs = append(progs, prog{"corpus2k", progen.Flatten(files)})
	}
	methods := []struct {
		name             string
		m                Method
		returns, refresh bool
	}{
		{"FI", FlowInsensitive, false, false},
		{"FS", FlowSensitive, false, false},
		{"FS+returns", FlowSensitive, true, false},
		{"FS+returns+refresh", FlowSensitive, true, true},
		{"FS-iterative", FlowSensitiveIterative, false, false},
	}
	for _, pr := range progs {
		ctx := prepareSrc(t, pr.name, pr.src)
		for _, floats := range []bool{true, false} {
			for _, workers := range []int{1, 4} {
				// The returns traversal read the FS stage's entry maps:
				// an FS + returns run's Entry.
				var fsEntry map[*sem.Proc]lattice.Env[*sem.Var]
				for _, mm := range methods {
					t.Run(fmt.Sprintf("%s/%s/floats=%v/workers=%d", pr.name, mm.name, floats, workers), func(t *testing.T) {
						opts := Options{Method: mm.m, PropagateFloats: floats, ReturnConstants: mm.returns,
							ReturnsRefresh: mm.refresh, Workers: workers, DropIntra: true}
						res := Analyze(ctx, opts)
						var m *refMaps
						if mm.m == FlowInsensitive {
							m = refFI(ctx, res.FI)
							for _, p := range ctx.CG.Reachable {
								if !sameEnv(res.Entry[p], res.FI.entryEnvFor(p)) {
									t.Fatalf("%s: Entry differs from the FI solution's", p.Name)
								}
							}
						} else {
							m = newRefMaps()
							for i, p := range ctx.CG.Reachable {
								m.mergeSiteValues(ctx, opts, p, res.sites[i])
								want := frameEnv(ctx.Prog.FuncOf[p], res.sites[i].Entry)
								if i == 0 {
									want = (&run{ctx: ctx, opts: opts}).mainEntry()
								}
								if !sameEnv(res.Entry[p], want) {
									t.Fatalf("%s: Entry %v, from the installed frame %v", p.Name, res.Entry[p], want)
								}
							}
						}
						if mm.returns {
							if !mm.refresh {
								fsEntry = res.Entry
							}
							m.exitEnv = make(map[*sem.Proc]lattice.Env[*sem.Var])
							for i, p := range ctx.CG.Reachable {
								m.exitEnv[p] = exitMap(ctx.Prog.FuncOf[p], res.Exit[i], res.CanReturn[i], fsEntry[p])
							}
						}
						compareWithMaps(t, res, m)
					})
				}
			}
		}
	}
}

func sameEnv(a, b lattice.Env[*sem.Var]) bool {
	if len(a) != len(b) {
		return false
	}
	for v, e := range a {
		if f, ok := b[v]; !ok || !f.Eq(e) {
			return false
		}
	}
	return true
}

// prepareSrc loads one source file and prepares its context.
func prepareSrc(t *testing.T, name, src string) *Context {
	t.Helper()
	f := source.NewFile(name, src)
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
	return Prepare(prog)
}
