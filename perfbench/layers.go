package main

import (
	"fmt"

	fsicp "fsicp"
	"fsicp/internal/alias"
	"fsicp/internal/ast"
	"fsicp/internal/callgraph"
	"fsicp/internal/driver"
	"fsicp/internal/icp"
	"fsicp/internal/irbuild"
	"fsicp/internal/lattice"
	"fsicp/internal/modref"
	"fsicp/internal/parser"
	"fsicp/internal/progen"
	"fsicp/internal/sem"
	"fsicp/internal/source"
	"fsicp/internal/ssa"
	"fsicp/internal/transform"
)

// frontEnd runs the load layers one after another on files, each
// through its public entry point and inside its own span: parse per
// file plus the unit merge, sem, irbuild, callgraph, alias, modref,
// clobber insertion, and SSA construction per reachable procedure. The
// result is the context the analyses run on, with its SSA cache
// filled, as the facade's load leaves it, plus the number of IR
// instructions irbuild produced.
func frontEnd(files []progen.File, rec *recorder, withSSA bool) (*icp.Context, int, error) {
	fset := source.NewFileSet()
	units := make([]*ast.Program, len(files))
	var astProg *ast.Program
	var err error
	rec.do("parser", func() {
		for i, f := range files {
			sf := fset.Add(f.Name, f.Src)
			rec.do("parser.file", func() { units[i], err = parser.ParseUnit(sf, fset) })
			if err != nil {
				return
			}
		}
		rec.do("parser.merge", func() { astProg = ast.MergeUnits(units) })
	})
	if err != nil {
		return nil, 0, fmt.Errorf("parse: %w", err)
	}
	var semProg *sem.Program
	rec.do("sem", func() { semProg, err = sem.Check(astProg, fset) })
	if err != nil {
		return nil, 0, fmt.Errorf("sem: %w", err)
	}
	ctx := &icp.Context{}
	rec.do("irbuild", func() { ctx.Prog, err = irbuild.Build(semProg) })
	if err != nil {
		return nil, 0, fmt.Errorf("irbuild: %w", err)
	}
	instrs := 0
	for _, fn := range ctx.Prog.Funcs {
		instrs += fn.NumInstrs
	}
	rec.do("callgraph", func() { ctx.CG = callgraph.Build(ctx.Prog) })
	rec.do("alias", func() { ctx.AL = alias.Compute(ctx.Prog, ctx.CG) })
	rec.do("modref", func() { ctx.MR = modref.Compute(ctx.Prog, ctx.CG, ctx.AL) })
	rec.do("alias.clobbers", func() { ctx.AL.InsertClobbers(ctx.Prog, ctx.CG) })
	if withSSA {
		rec.do("ssa", func() { buildSSA(ctx) })
	}
	return ctx, instrs, nil
}

func buildSSA(ctx *icp.Context) {
	ctx.SSACache = make([]*ssa.SSA, len(ctx.CG.Reachable))
	for i, p := range ctx.CG.Reachable {
		ctx.SSACache[i] = ssa.Build(ctx.Prog.FuncOf[p])
	}
}

// methodRuns holds one result per analysis variant the traced run
// times.
type methodRuns struct {
	fi, fs, fsReturns, fsRefresh, iter *icp.Result
	iterTrace                          *driver.Trace
}

// icpOptions is the facade's option mapping for one analysis, run
// serially.
func icpOptions(m icp.Method, returns, refresh bool) icp.Options {
	return icp.Options{Method: m, PropagateFloats: true, ReturnConstants: returns,
		ReturnsRefresh: refresh, Workers: 1, DropIntra: true}
}

// analyzeAll runs every analysis variant through icp.Analyze, each in
// its own span.
func analyzeAll(ctx *icp.Context, rec *recorder) methodRuns {
	var r methodRuns
	rec.do("icp.fi", func() { r.fi = icp.Analyze(ctx, icpOptions(icp.FlowInsensitive, false, false)) })
	rec.do("icp.fs", func() { r.fs = icp.Analyze(ctx, icpOptions(icp.FlowSensitive, false, false)) })
	rec.do("icp.fs_returns", func() { r.fsReturns = icp.Analyze(ctx, icpOptions(icp.FlowSensitive, true, false)) })
	rec.do("icp.fs_refresh", func() { r.fsRefresh = icp.Analyze(ctx, icpOptions(icp.FlowSensitive, true, true)) })
	opts := icpOptions(icp.FlowSensitiveIterative, false, false)
	r.iterTrace = driver.NewTrace()
	opts.Trace = r.iterTrace
	rec.do("icp.iter", func() { r.iter = icp.Analyze(ctx, opts) })
	return r
}

// optimize runs the whole optimization pipeline driven by res, as
// `fsicp -optimize` does after the analysis.
func optimize(ctx *icp.Context, res *icp.Result, rec *recorder) (transform.Report, error) {
	env := func(p *sem.Proc) lattice.Env[*sem.Var] { return res.Entry[p] }
	var rep transform.Report
	var err error
	rec.do("transform", func() { rep, err = transform.Optimize(ctx, env, transform.Options{Workers: 1}) })
	return rep, err
}

// facadeOptimizeReport renders a transform report the way
// fsicp.Analysis.Optimize does, so the traced chain's report can be
// compared byte for byte with the CLI's output.
func facadeOptimizeReport(rep transform.Report) *fsicp.OptimizeReport {
	conv := func(c transform.Counts) fsicp.OptPassStats {
		return fsicp.OptPassStats{EntryAssignments: c.EntryAssignments, FoldedInstrs: c.FoldedInstrs,
			FoldedBranches: c.FoldedBranches, RemovedBlocks: c.RemovedBlocks, RemovedInstrs: c.RemovedInstrs,
			CopiesPropagated: c.CopiesPropagated, DeadStores: c.DeadStores, CSEReplaced: c.CSEReplaced,
			HoistedConsts: c.HoistedConsts}
	}
	t := conv(rep.Counts)
	out := &fsicp.OptimizeReport{EntryAssignments: t.EntryAssignments, FoldedInstrs: t.FoldedInstrs,
		FoldedBranches: t.FoldedBranches, RemovedBlocks: t.RemovedBlocks, RemovedInstrs: t.RemovedInstrs,
		CopiesPropagated: t.CopiesPropagated, DeadStores: t.DeadStores, CSEReplaced: t.CSEReplaced,
		HoistedConsts: t.HoistedConsts}
	for _, p := range rep.Passes {
		ps := conv(p.Counts)
		ps.Pass = p.Pass
		out.Passes = append(out.Passes, ps)
	}
	return out
}

// entryConstants counts the (procedure, variable) pairs res proves
// constant at procedure entry.
func entryConstants(res *icp.Result) int {
	n := 0
	for _, env := range res.Entry {
		for _, e := range env {
			if e.IsConst() {
				n++
			}
		}
	}
	return n
}
