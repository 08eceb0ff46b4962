// Package clone implements goal-directed procedure cloning driven by
// interprocedural constant propagation, after Metzger and Stroud (LOPLAS
// 1993), whom the paper credits: "goal-directed procedure cloning based
// on constant propagation can substantially increase the number of
// interprocedural constants" (§5).
//
// The pass groups a procedure's call sites by their constant-argument
// pattern (from an ICP solution's per-call-site values). When a group's
// pattern carries constants that the meet over *all* sites loses — the
// formals are not constant only because different sites pass different
// constants — the callee is cloned for that group and the group's call
// sites are retargeted. Re-running ICP on the cloned program then finds
// the per-clone constants.
package clone

import (
	"fmt"

	"fsicp/internal/icp"
	"fsicp/internal/ir"
	"fsicp/internal/lattice"
	"fsicp/internal/sem"
)

// Options bounds the pass.
type Options struct {
	// MaxClonesPerProc bounds how many clones one procedure may get
	// (default 4). Call sites beyond the budget keep the original.
	MaxClonesPerProc int
	// MinSites requires a pattern to cover at least this many call
	// sites before it earns a clone (default 1).
	MinSites int
}

// Report summarises a pass.
type Report struct {
	Cloned        int // clone procedures created
	RetargetedCS  int // call sites moved to a clone
	SkippedBudget int // patterns dropped by MaxClonesPerProc
}

// Run performs the cloning on prog, guided by an ICP result computed on
// it. The program is modified in place; the caller should icp.Prepare
// and re-analyse afterwards to observe the added constants.
func Run(ctx *icp.Context, res *icp.Result, opts Options) Report {
	if opts.MaxClonesPerProc == 0 {
		opts.MaxClonesPerProc = 4
	}
	if opts.MinSites == 0 {
		opts.MinSites = 1
	}
	var rep Report
	prog := ctx.Prog

	// Group incoming call sites per callee by constant pattern.
	type group struct {
		pattern string
		sites   []*ir.CallInstr
		vals    []lattice.Elem
	}
	for _, callee := range ctx.CG.Reachable {
		if callee == prog.Sem.Main {
			continue
		}
		in := ctx.CG.In[callee]
		if len(in) < 2 {
			continue // a single site already meets to itself
		}
		groups := map[string]*group{}
		var order []string
		for _, e := range in {
			vals := res.ArgVals[e.Site]
			key := patternKey(vals)
			g, ok := groups[key]
			if !ok {
				g = &group{pattern: key, vals: vals}
				groups[key] = g
				order = append(order, key)
			}
			g.sites = append(g.sites, e.Site)
		}
		if len(groups) < 2 {
			continue // every site agrees; the meet already wins
		}
		// The overall meet: which argument slots are constant anyway?
		meet := make([]lattice.Elem, len(callee.Params))
		for i := range meet {
			meet[i] = lattice.TopElem()
		}
		for _, g := range groups {
			for i := range meet {
				if i < len(g.vals) {
					meet[i] = lattice.Meet(meet[i], g.vals[i])
				}
			}
		}
		clones := 0
		for _, key := range order {
			g := groups[key]
			if len(g.sites) < opts.MinSites {
				continue
			}
			// Worth cloning iff the group's pattern has a constant in a
			// slot the meet lost.
			gain := false
			for i := range meet {
				if i < len(g.vals) && g.vals[i].IsConst() && !meet[i].IsConst() {
					gain = true
					break
				}
			}
			if !gain {
				continue
			}
			if clones >= opts.MaxClonesPerProc {
				rep.SkippedBudget++
				continue
			}
			cloneProc := cloneProcedure(prog, callee, clones)
			for _, cs := range g.sites {
				cs.Callee = cloneProc
			}
			rep.Cloned++
			rep.RetargetedCS += len(g.sites)
			clones++
		}
	}
	ir.RebuildCallLists(prog)
	return rep
}

func patternKey(vals []lattice.Elem) string {
	key := ""
	for _, v := range vals {
		if v.IsConst() {
			key += v.Val.String() + "|"
		} else {
			key += "?|"
		}
	}
	return key
}

// cloneProcedure deep-copies a procedure and its CFG under a fresh
// name, registering it with the semantic program and the IR program.
func cloneProcedure(prog *ir.Program, orig *sem.Proc, n int) *sem.Proc {
	name := fmt.Sprintf("%s$%d", orig.Name, n+1)
	for prog.Sem.ProcByName[name] != nil {
		n++
		name = fmt.Sprintf("%s$%d", orig.Name, n+1)
	}
	np := &sem.Proc{
		Name:    name,
		Index:   len(prog.Sem.Procs),
		IsFunc:  orig.IsFunc,
		Result:  orig.Result,
		Decl:    orig.Decl,
		UsesSet: make(map[*sem.Var]bool),
	}
	vmap := make(map[*sem.Var]*sem.Var)
	for i, f := range orig.Params {
		nf := &sem.Var{Name: f.Name, Kind: sem.KindFormal, Type: f.Type, Index: i, Owner: np, Pos: f.Pos}
		np.Params = append(np.Params, nf)
		vmap[f] = nf
	}
	for g := range orig.UsesSet {
		np.UsesSet[g] = true
	}
	np.Uses = append(np.Uses, orig.Uses...)
	prog.Sem.Procs = append(prog.Sem.Procs, np)
	prog.Sem.ProcByName[name] = np

	ofn := prog.FuncOf[orig]
	nfn := &ir.Func{Proc: np}
	mapVar := func(v *sem.Var) *sem.Var {
		if v == nil {
			return nil
		}
		if v.IsGlobal() {
			return v
		}
		if m, ok := vmap[v]; ok {
			return m
		}
		var nv *sem.Var
		if v.Kind == sem.KindTemp {
			nv = np.NewTemp(v.Type)
		} else {
			nv = np.NewLocal(v.Name, v.Type)
		}
		vmap[v] = nv
		return nv
	}
	bmap := make(map[*ir.Block]*ir.Block, len(ofn.Blocks))
	for _, b := range ofn.Blocks {
		bmap[b] = nfn.NewBlock()
	}
	for _, b := range ofn.Blocks {
		nb := bmap[b]
		for _, in := range b.Instrs {
			nb.Instrs = append(nb.Instrs, ir.CloneInstr(in, mapVar))
		}
		switch t := b.Term.(type) {
		case *ir.Jump:
			nb.Term = &ir.Jump{Target: bmap[t.Target]}
		case *ir.If:
			nb.Term = &ir.If{Cond: mapVar(t.Cond), Then: bmap[t.Then], Else: bmap[t.Else]}
		case *ir.Ret:
			nb.Term = &ir.Ret{Val: mapVar(t.Val)}
		}
	}
	ir.RebuildCFG(nfn)
	// Track the same variables the original did (formals, locals,
	// globals), in a stable order.
	for _, v := range ofn.AllVars {
		if !v.IsGlobal() {
			nfn.RegisterVar(mapVar(v))
		}
	}
	nfn.SetGlobals(ofn.Globals())
	prog.Funcs = append(prog.Funcs, nfn)
	prog.FuncOf[np] = nfn
	return np
}
