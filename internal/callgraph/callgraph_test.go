package callgraph_test

import (
	"slices"
	"testing"

	"fsicp/internal/callgraph"
	"fsicp/internal/sem"
	"fsicp/internal/testutil"
)

func build(t *testing.T, src string) *callgraph.Graph {
	t.Helper()
	return callgraph.Build(testutil.MustBuild(t, src))
}

func TestAcyclicOrder(t *testing.T) {
	g := build(t, `program p
proc main() {
  call a()
  call b()
}
proc a() { call c() }
proc b() { call c() }
proc c() {}
proc dead() { call c() }`)
	if len(g.Reachable) != 4 {
		t.Fatalf("reachable: %d", len(g.Reachable))
	}
	if g.Reachable[0].Name != "main" {
		t.Errorf("first is %s", g.Reachable[0].Name)
	}
	// Topological: every non-back edge goes forward.
	for _, e := range g.Edges {
		if g.Pos[e.Caller.Index] >= g.Pos[e.Callee.Index] {
			t.Errorf("edge %s->%s not forward in order", e.Caller.Name, e.Callee.Name)
		}
	}
	if g.HasCycles() {
		t.Error("acyclic graph reported cycles")
	}
	if back, total := g.BackEdgeRatio(); back != 0 || total != 4 {
		t.Errorf("ratio: %d/%d", back, total)
	}
	dead := g.Prog.Sem.ProcByName["dead"]
	if g.PosOf(dead) >= 0 {
		t.Error("dead should be unreachable")
	}
}

func TestSelfRecursion(t *testing.T) {
	g := build(t, `program p
proc main() { call r(3) }
proc r(n int) {
  if n > 0 {
    call r(n - 1)
  }
}`)
	if !g.HasCycles() {
		t.Fatal("self recursion not detected")
	}
	back, total := g.BackEdgeRatio()
	if back != 1 || total != 2 {
		t.Errorf("ratio: %d/%d, want 1/2", back, total)
	}
}

func TestMutualRecursion(t *testing.T) {
	g := build(t, `program p
proc main() { call even(4) }
proc even(n int) {
  if n > 0 {
    call odd(n - 1)
  }
}
proc odd(n int) {
  if n > 0 {
    call even(n - 1)
  }
}`)
	if !g.HasCycles() {
		t.Fatal("mutual recursion not detected")
	}
	// even and odd share an SCC; main is alone.
	even := g.Prog.Sem.ProcByName["even"]
	odd := g.Prog.Sem.ProcByName["odd"]
	main := g.Prog.Sem.ProcByName["main"]
	if sccOf(g, even) != sccOf(g, odd) {
		t.Error("even and odd must share an SCC")
	}
	if sccOf(g, main) == sccOf(g, even) {
		t.Error("main must not share the cycle's SCC")
	}
	// Exactly one of the two cycle edges is a back edge.
	back := 0
	for _, e := range g.Edges {
		if g.IsBackEdge(e) {
			back++
		}
	}
	if back != 1 {
		t.Errorf("back edges: %d, want 1", back)
	}
}

func TestSCCReverseTopological(t *testing.T) {
	g := build(t, `program p
proc main() { call a() }
proc a() { call b() }
proc b() { call a()
  call c() }
proc c() {}`)
	// SCCs in reverse topological order: c's component before {a,b},
	// before main's.
	a := g.Prog.Sem.ProcByName["a"]
	c := g.Prog.Sem.ProcByName["c"]
	main := g.Prog.Sem.ProcByName["main"]
	if !(sccOf(g, c) < sccOf(g, a) && sccOf(g, a) < sccOf(g, main)) {
		t.Errorf("SCC order wrong: c=%d a=%d main=%d", sccOf(g, c), sccOf(g, a), sccOf(g, main))
	}
}

// sccOf returns the index of p's component in g.SCCs, or -1.
func sccOf(g *callgraph.Graph, p *sem.Proc) int {
	for i, comp := range g.SCCs {
		if slices.Contains(comp, p) {
			return i
		}
	}
	return -1
}

func TestMultipleCallSitesSameCallee(t *testing.T) {
	g := build(t, `program p
proc main() {
  call f(1)
  call f(2)
  call f(3)
}
proc f(a int) {}`)
	f := g.Pos[g.Prog.Sem.ProcByName["f"].Index]
	if len(g.In[f]) != 3 {
		t.Errorf("incoming edges: %d, want 3", len(g.In[f]))
	}
	if len(g.Edges) != 3 {
		t.Errorf("edges: %d, want 3 (multigraph)", len(g.Edges))
	}
}
