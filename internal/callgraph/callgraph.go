// Package callgraph builds the Program Call Graph (PCG) of a MiniFort
// program and provides the traversal orders the interprocedural analyses
// need: reachability from main, a forward topological order (reverse
// post-order of a DFS from main), back-edge classification against that
// order, the forward-edge DAG in both directions for the parallel
// traversals, and Tarjan strongly connected components for cycle
// handling.
//
// Following the paper (§3.2), a call edge is a *back edge* exactly when
// the callee is not processed before the caller in the chosen forward
// topological traversal — i.e. pos(caller) >= pos(callee). For an acyclic
// PCG there are no back edges and the flow-sensitive ICP needs no
// flow-insensitive fallback. The ratio of back edges to total edges
// measures how flow-insensitive the combined solution is.
package callgraph

import (
	"fmt"
	"slices"
	"strings"

	"fsicp/internal/driver"
	"fsicp/internal/ir"
	"fsicp/internal/sem"
)

// Edge is one call-site edge of the PCG. CallerPos and CalleePos are
// the endpoints' positions in Graph.Reachable, and SiteIdx is Site's
// position in the caller's call list when the graph was built, so
// Out[CallerPos][SiteIdx] is the edge itself. A pass that rewrites the
// IR renumbers ir.CallInstr.SiteIdx and rebuilds the graph; an edge of
// the old graph keeps its numbers.
type Edge struct {
	Caller *sem.Proc
	Callee *sem.Proc
	Site   *ir.CallInstr

	CallerPos, CalleePos, SiteIdx int32
}

// Graph is the PCG.
type Graph struct {
	Prog *ir.Program

	// Reachable lists the procedures reachable from main, in forward
	// topological order (reverse post-order; main first).
	Reachable []*sem.Proc

	// Pos[p.Index] is procedure p's position in Reachable, or -1 when p
	// is unreachable.
	Pos []int

	// Edges lists every call edge whose caller is reachable.
	Edges []Edge

	// Out[i] lists the outgoing edges of the procedure at position i of
	// Reachable, In[i] its incoming edges (reachable callers only).
	Out, In [][]Edge

	// SCCs are Tarjan strongly connected components of the reachable
	// subgraph, in reverse topological order (callees' components
	// before callers').
	SCCs [][]*sem.Proc

	// Forward is the DAG of the forward edges over Reachable
	// positions, each running from caller to callee: the order of the
	// forward traversals, where a procedure waits for its forward-edge
	// callers. Reverse turns every edge round for the reverse
	// traversal, where a procedure waits for its forward-edge callees.
	Forward, Reverse *driver.DAG
}

// Build constructs the PCG of prog.
func Build(prog *ir.Program) *Graph {
	g := &Graph{Prog: prog, Pos: make([]int, len(prog.Sem.Procs))}
	for i := range g.Pos {
		g.Pos[i] = -1
	}
	if prog.Sem.Main == nil {
		g.Forward = driver.NewDAG(0, false, nil, nil)
		g.Reverse = driver.NewDAG(0, true, nil, nil)
		return g
	}

	// DFS from main; post-order reversed gives the forward topological
	// order used by the ICP traversals.
	visited := make(map[*sem.Proc]bool)
	var post []*sem.Proc
	var dfs func(p *sem.Proc)
	dfs = func(p *sem.Proc) {
		visited[p] = true
		for _, call := range prog.FuncOf[p].Calls {
			if !visited[call.Callee] {
				dfs(call.Callee)
			}
		}
		post = append(post, p)
	}
	dfs(prog.Sem.Main)
	for i := len(post) - 1; i >= 0; i-- {
		g.Pos[post[i].Index] = len(g.Reachable)
		g.Reachable = append(g.Reachable, post[i])
	}

	g.Out = make([][]Edge, len(g.Reachable))
	g.In = make([][]Edge, len(g.Reachable))
	var from, to []int32 // the forward edges' endpoints
	for i, p := range g.Reachable {
		for k, call := range prog.FuncOf[p].Calls {
			e := Edge{Caller: p, Callee: call.Callee, Site: call, CallerPos: int32(i), CalleePos: int32(g.Pos[call.Callee.Index]), SiteIdx: int32(k)}
			g.Edges = append(g.Edges, e)
			g.Out[i] = append(g.Out[i], e)
			g.In[e.CalleePos] = append(g.In[e.CalleePos], e)
			if !g.IsBackEdge(e) {
				from, to = append(from, e.CallerPos), append(to, e.CalleePos)
			}
		}
	}
	g.Forward = driver.NewDAG(len(g.Reachable), false, from, to)
	g.Reverse = driver.NewDAG(len(g.Reachable), true, to, from)
	g.tarjan()
	return g
}

// PosOf returns p's position in Reachable, or -1. Pos is indexed by
// sem.Proc.Index as the graph was built; a pass that deletes
// procedures renumbers them, so a miss there falls back to a scan.
func (g *Graph) PosOf(p *sem.Proc) int {
	if p.Index < len(g.Pos) {
		if i := g.Pos[p.Index]; i >= 0 && g.Reachable[i] == p {
			return i
		}
	}
	return slices.Index(g.Reachable, p)
}

// IsBackEdge reports whether e is a back edge of the forward topological
// traversal: its callee is not processed strictly after its caller.
func (g *Graph) IsBackEdge(e Edge) bool {
	return e.CalleePos <= e.CallerPos
}

// HasCycles reports whether the reachable PCG contains any cycle:
// exactly when it has a back edge, since in a reverse post-order only
// the DFS's back edges run backwards.
func (g *Graph) HasCycles() bool {
	back, _ := g.BackEdgeRatio()
	return back > 0
}

// BackEdgeRatio returns (#back edges, #edges) — the paper's measure of
// how flow-insensitive the combined FS solution is.
func (g *Graph) BackEdgeRatio() (back, total int) {
	for _, e := range g.Edges {
		total++
		if g.IsBackEdge(e) {
			back++
		}
	}
	return back, total
}

// tarjan computes SCCs of the reachable subgraph. SCCs end up in
// reverse topological order (a component is emitted only after every
// component it calls into).
func (g *Graph) tarjan() {
	n := len(g.Reachable)
	index := make([]int, n) // 1 + visit order; 0 while unvisited
	low := make([]int, n)
	onStack := make([]bool, n)
	var stack []int32
	next := 0

	var strong func(p int32)
	strong = func(p int32) {
		next++
		index[p], low[p] = next, next
		stack = append(stack, p)
		onStack[p] = true
		for _, e := range g.Out[p] {
			q := e.CalleePos
			if index[q] == 0 {
				strong(q)
				low[p] = min(low[p], low[q])
			} else if onStack[q] {
				low[p] = min(low[p], index[q])
			}
		}
		if low[p] == index[p] {
			var comp []*sem.Proc
			for {
				q := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[q] = false
				comp = append(comp, g.Reachable[q])
				if q == p {
					break
				}
			}
			g.SCCs = append(g.SCCs, comp)
		}
	}
	for p := range g.Reachable {
		if index[p] == 0 {
			strong(int32(p))
		}
	}
}

// Dump renders the PCG for debugging.
func (g *Graph) Dump() string {
	var b strings.Builder
	for i, p := range g.Reachable {
		fmt.Fprintf(&b, "%s:", p.Name)
		for _, e := range g.Out[i] {
			mark := ""
			if g.IsBackEdge(e) {
				mark = "*"
			}
			fmt.Fprintf(&b, " %s%s", e.Callee.Name, mark)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
