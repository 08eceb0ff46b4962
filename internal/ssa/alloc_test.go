package ssa_test

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"strings"
	"testing"

	"fsicp/internal/icp"
	"fsicp/internal/ir"
	"fsicp/internal/progen"
	"fsicp/internal/ssa"
	"fsicp/internal/testutil"
)

// loopProgram returns a procedure whose CFG — a loop around an if —
// does not depend on k, while its definitions and uses grow with it:
// k variables, each assigned in both arms, read by a call, and printed.
func loopProgram(k int) string {
	var b strings.Builder
	b.WriteString("program p\nglobal g int = 1\nproc main() {\n  use g\n  var i int = 0\n")
	for j := 0; j < k; j++ {
		fmt.Fprintf(&b, "  var a%d int = %d\n", j, j)
	}
	b.WriteString("  while i < 10 {\n    if i > 4 {\n")
	for j := 0; j < k; j++ {
		fmt.Fprintf(&b, "      a%d = a%d + i * g\n", j, j)
	}
	b.WriteString("    } else {\n")
	for j := 0; j < k; j++ {
		fmt.Fprintf(&b, "      a%d = a%d - 1\n", j, j)
	}
	b.WriteString("    }\n")
	for j := 0; j < k; j++ {
		fmt.Fprintf(&b, "    call f(a%d)\n", j)
	}
	b.WriteString("    i = i + 1\n  }\n")
	for j := 0; j < k; j++ {
		fmt.Fprintf(&b, "  print a%d\n", j)
	}
	b.WriteString("}\nproc f(x int) {\n  use g\n  g = x\n}\n")
	return b.String()
}

// TestBuildAllocsIndependentOfSize shows that a build's allocation
// count does not grow with definitions or uses: every table is one
// allocation sized up front, and the scratch is pooled. The two
// functions share a CFG, whose dominator tree is allocated per block.
func TestBuildAllocsIndependentOfSize(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled scratch at random")
	}
	small := testutil.FuncByName(t, testutil.MustPrepare(t, loopProgram(2)), "main")
	large := testutil.FuncByName(t, testutil.MustPrepare(t, loopProgram(40)), "main")
	if len(small.Blocks) != len(large.Blocks) {
		t.Fatalf("CFGs differ: %d and %d blocks", len(small.Blocks), len(large.Blocks))
	}
	count := func(fn *ir.Func) (defs, uses int) {
		s := ssa.Build(fn)
		for d := range s.Defs {
			uses += len(usesOf(s, int32(d)))
		}
		return len(s.Defs), uses
	}
	sd, su := count(small)
	ld, lu := count(large)
	if ld < 10*sd || lu < 10*su {
		t.Fatalf("sizes too close: %d/%d definitions, %d/%d uses", sd, ld, su, lu)
	}
	a := testing.AllocsPerRun(50, func() { ssa.Build(small) })
	b := testing.AllocsPerRun(50, func() { ssa.Build(large) })
	t.Logf("%v allocations for %d definitions and %d uses, %v for %d and %d", a, sd, su, b, ld, lu)
	if a != b {
		t.Errorf("ssa.Build allocates %v times for %d definitions and %d uses, %v times for %d and %d", a, sd, su, b, ld, lu)
	}
}

// coldCompileCorpus is the generator configuration of the cold-compile
// benchmark corpus: 2305 procedures and 392 globals.
func coldCompileCorpus(seed int64) progen.ModuleConfig {
	return progen.ModuleConfig{Seed: seed, Modules: 24, ProcsPerModule: 96, Globals: 8,
		BlockData: 16, SCCSize: 4, FanOut: 8, MaxStmts: 4, AllowFloats: true}
}

// liveHeap collects garbage and reads the live heap.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestSSALiveHeap bounds what the overlays of a whole program keep
// alive: every reachable procedure's SSA of the cold-compile corpus
// (seed 1, 180,911 definitions) in at most 12 MiB of live heap. The
// pointer-per-definition layout it replaced kept 29 MiB.
func TestSSALiveHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 2305-procedure corpus")
	}
	files, _ := progen.GenerateModules(coldCompileCorpus(1))
	ctx := icp.Prepare(testutil.MustBuild(t, progen.Flatten(files)))
	before := liveHeap()
	overlays := make([]*ssa.SSA, len(ctx.CG.Reachable))
	defs := 0
	for i, p := range ctx.CG.Reachable {
		overlays[i] = ssa.Build(ctx.Prog.FuncOf[p])
		defs += len(overlays[i].Defs)
	}
	live := float64(liveHeap()-before) / (1 << 20)
	// The context outlives the overlays, as in an analysis: nothing it
	// holds may be freed between the two samples.
	runtime.KeepAlive(overlays)
	runtime.KeepAlive(ctx)
	t.Logf("%d overlays, %d definitions: %.1f MiB live", len(overlays), defs, live)
	if live > 12 {
		t.Errorf("the overlays keep %.1f MiB live, want at most 12", live)
	}
}
