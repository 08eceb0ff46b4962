// Package soundness cross-checks constant-propagation claims against
// interpreter observations: every value an analysis proves constant must
// equal the value the reference interpreter actually observed, at every
// procedure entry, call site, and return. It is used by the unit tests
// and by the random-program property tests.
package soundness

import (
	"fmt"

	"fsicp/internal/icp"
	"fsicp/internal/interp"
	"fsicp/internal/jumpfunc"
	"fsicp/internal/sem"
	"fsicp/internal/val"
)

// CheckICP verifies an icp.Result against a trace. It returns a list of
// human-readable violations (empty means sound).
func CheckICP(r *icp.Result, tr *interp.Trace) []string {
	var bad []string
	ctx := r.Ctx

	for i, p := range r.CG.Reachable {
		invoked := tr.Invocations[p] > 0
		if r.Dead(i) && invoked {
			bad = append(bad, fmt.Sprintf("%s: claimed dynamically dead but invoked %d times", p.Name, tr.Invocations[p]))
			continue
		}
		if !invoked {
			continue
		}
		obs := tr.Entry[p]
		check := func(v fmt.Stringer, claimed val.Value, o *interp.Observation) {
			if o == nil || o.Count == 0 {
				return
			}
			if o.Multiple {
				bad = append(bad, fmt.Sprintf("%s: %s claimed constant %s but varies at runtime", p.Name, v, claimed))
				return
			}
			if !o.First.Equal(claimed) {
				bad = append(bad, fmt.Sprintf("%s: %s claimed constant %s but observed %s", p.Name, v, claimed, o.First))
			}
		}
		for _, f := range p.Params {
			if c, ok := r.EntryConstant(p, f); ok {
				check(f, c, obs[f])
			}
		}
		for _, g := range ctx.Prog.Sem.Globals {
			if c, ok := r.EntryConstant(p, g); ok {
				check(g, c, obs[g])
			}
		}
	}

	for _, e := range r.CG.Edges {
		call := e.Site
		argObs := tr.Args[call]
		for i := range call.Args {
			if i >= len(argObs) && len(argObs) > 0 {
				break
			}
			v := r.ArgVal(e, i)
			var o *interp.Observation
			if argObs != nil {
				o = argObs[i]
			}
			executed := o != nil && o.Count > 0
			if v.IsTop() && executed {
				bad = append(bad, fmt.Sprintf("%s->%s: arg %d claimed unreachable but executed", e.Caller.Name, e.Callee.Name, i))
				continue
			}
			if v.IsConst() && executed {
				if o.Multiple {
					bad = append(bad, fmt.Sprintf("%s->%s: arg %d claimed %s but varies", e.Caller.Name, e.Callee.Name, i, v))
				} else if !o.First.Equal(v.Val()) {
					bad = append(bad, fmt.Sprintf("%s->%s: arg %d claimed %s but observed %s", e.Caller.Name, e.Callee.Name, i, v, o.First))
				}
			}
		}
		// Global candidates at call sites.
		if gobs := tr.GlobalsAtCall[call]; gobs != nil {
			r.CallGlobals(e, func(g *sem.Var, c val.Value) {
				o := gobs[g]
				if o == nil || o.Count == 0 {
					return
				}
				if o.Multiple {
					bad = append(bad, fmt.Sprintf("%s->%s: global %s claimed %s but varies", e.Caller.Name, e.Callee.Name, g.Name, c))
				} else if !o.First.Equal(c) {
					bad = append(bad, fmt.Sprintf("%s->%s: global %s claimed %s but observed %s", e.Caller.Name, e.Callee.Name, g.Name, c, o.First))
				}
			})
		}
	}

	if r.Returns != nil {
		for i, p := range r.CG.Reachable {
			rv := r.Returns[i]
			if !rv.IsConst() {
				continue
			}
			o := tr.Returns[p]
			if o == nil || o.Count == 0 {
				continue
			}
			if o.Multiple {
				bad = append(bad, fmt.Sprintf("%s: return claimed %s but varies", p.Name, rv))
			} else if !o.First.Equal(rv.Val()) {
				bad = append(bad, fmt.Sprintf("%s: return claimed %s but observed %s", p.Name, rv, o.First))
			}
		}
	}
	if r.Exit != nil {
		for i, p := range r.CG.Reachable {
			for v, o := range tr.ExitVars[p] {
				e := r.ExitValue(i, v)
				if !e.IsConst() || o == nil || o.Count == 0 {
					continue
				}
				if o.Multiple {
					bad = append(bad, fmt.Sprintf("%s: exit %s claimed %s but varies", p.Name, v, e))
				} else if !o.First.Equal(e.Val()) {
					bad = append(bad, fmt.Sprintf("%s: exit %s claimed %s but observed %s", p.Name, v, e, o.First))
				}
			}
		}
	}
	return bad
}

// CheckJump verifies a jump-function solution against a trace.
func CheckJump(r *jumpfunc.Result, tr *interp.Trace) []string {
	var bad []string
	for _, p := range r.Ctx.CG.Reachable {
		if tr.Invocations[p] == 0 {
			continue
		}
		obs := tr.Entry[p]
		for _, f := range p.Params {
			e := r.Formals[f]
			if !e.IsConst() {
				continue
			}
			o := obs[f]
			if o == nil || o.Count == 0 {
				continue
			}
			if o.Multiple {
				bad = append(bad, fmt.Sprintf("%s(%v): %s claimed %s but varies", p.Name, r.Kind, f.Name, e))
			} else if !o.First.Equal(e.Val()) {
				bad = append(bad, fmt.Sprintf("%s(%v): %s claimed %s but observed %s", p.Name, r.Kind, f.Name, e, o.First))
			}
		}
	}
	return bad
}
