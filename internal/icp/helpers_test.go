package icp_test

import (
	"testing"

	"fsicp/internal/callgraph"
	"fsicp/internal/icp"
	"fsicp/internal/interp"
	"fsicp/internal/ir"
	"fsicp/internal/lattice"
	"fsicp/internal/sem"
	"fsicp/internal/soundness"
	"fsicp/internal/val"
)

func interpRun(t *testing.T, prog *ir.Program) *interp.Trace {
	t.Helper()
	r := interp.Run(prog, interp.Options{TraceGlobalsAtCalls: true})
	if r.Err != nil {
		t.Fatalf("interp: %v", r.Err)
	}
	return r.Trace
}

func soundnessCheck(r *icp.Result, tr *interp.Trace) []string {
	return soundness.CheckICP(r, tr)
}

// edgeOf returns the call edge of call, a site of a reachable
// procedure of r's call graph.
func edgeOf(r *icp.Result, call *ir.CallInstr) callgraph.Edge {
	for _, e := range r.CG.Edges {
		if e.Site == call {
			return e
		}
	}
	panic("no edge for call to " + call.Callee.Name)
}

// argVals collects ArgVal for every actual of call.
func argVals(r *icp.Result, call *ir.CallInstr) []lattice.Elem {
	e := edgeOf(r, call)
	vals := make([]lattice.Elem, len(call.Args))
	for i := range vals {
		vals[i] = r.ArgVal(e, i)
	}
	return vals
}

// callGlobals collects CallGlobals at call, only the caller-visible
// ones (the VIS subset) when visible is set.
func callGlobals(r *icp.Result, call *ir.CallInstr, visible bool) map[*sem.Var]val.Value {
	e := edgeOf(r, call)
	m := make(map[*sem.Var]val.Value)
	r.CallGlobals(e, func(g *sem.Var, v val.Value) {
		if !visible || e.Caller.UsesSet[g] {
			m[g] = v
		}
	})
	return m
}

// deadProc reports Result.Dead for p by its position.
func deadProc(r *icp.Result, p *sem.Proc) bool { return r.Dead(r.CG.PosOf(p)) }

// returnOf reports Result.Returns for p by its position.
func returnOf(r *icp.Result, p *sem.Proc) lattice.Elem { return r.Returns[r.CG.PosOf(p)] }
