package icp

import (
	"context"
	"sync"

	"fsicp/internal/incr"
	"fsicp/internal/ir"
	"fsicp/internal/lattice"
	"fsicp/internal/resilience"
	"fsicp/internal/scc"
	"fsicp/internal/sem"
	"fsicp/internal/val"
)

// This file is the ICP engine's resilience layer. Every per-procedure
// worker body runs under guard.protect, which applies the
// fault-injection hook, isolates panics, and converts resource aborts
// (fuel, deadline, cancellation — see resilience.Budget) into a
// *degradation*: the procedure's answer is taken from the
// flow-insensitive solution instead of the flow-sensitive fixpoint.
// The FI solution is sound for every procedure (it is the paper's own
// back-edge fallback), so a degraded run is a sound, less precise
// result — never an error.

// guard carries one run's resilience state: the context and fuel
// configuration, the fault hook, the lazily ensured FI fallback, and
// the degradations recorded so far.
type guard struct {
	ctx    context.Context
	fuel   int
	faults func(pass, proc string)

	fiOnce sync.Once
	fiSol  *fiSolution

	mu   sync.Mutex
	degs []resilience.Degradation
}

func newGuard(opts Options) *guard {
	return &guard{ctx: opts.context(), fuel: opts.Fuel, faults: opts.Faults}
}

// armed reports whether any resilience feature is active. When armed,
// the FS method computes the FI fallback eagerly even on acyclic call
// graphs, so degradations can be served deterministically from inside
// any worker.
func (g *guard) armed() bool {
	return g.fuel > 0 || g.ctx.Done() != nil || g.faults != nil
}

// budget returns a fresh per-procedure budget (nil when unarmed —
// metering is free to skip).
func (g *guard) budget() *resilience.Budget {
	return resilience.NewBudget(g.ctx, g.fuel)
}

// ensureFI returns the run's FI fallback solution, computing it at
// most once. The computation itself is protected: if it faults, the
// fallback is the empty solution (every value ⊥ — trivially sound).
func (g *guard) ensureFI(ictx *Context, opts Options) *fiSolution {
	g.fiOnce.Do(func() {
		g.protect("FI", "", func() {
			g.fiSol = emptyFI(opts)
		}, func() {
			g.fiSol = runFI(ictx, opts)
		})
	})
	return g.fiSol
}

// protect runs body under the fault-injection hook and panic
// isolation. If body panics — a genuine bug, an injected fault, or a
// resilience sentinel from a Budget — the abort is classified,
// recorded as a Degradation for (pass, proc), and degrade is called to
// install the sound fallback answer in body's stead.
func (g *guard) protect(pass, proc string, degrade, body func()) {
	defer func() {
		if r := recover(); r != nil {
			reason, detail := resilience.Classify(r)
			g.record(resilience.Degradation{Proc: proc, Pass: pass, Reason: reason, Detail: detail})
			degrade()
		}
	}()
	if g.faults != nil {
		g.faults(pass, proc)
	}
	body()
}

func (g *guard) record(d resilience.Degradation) {
	g.mu.Lock()
	g.degs = append(g.degs, d)
	g.mu.Unlock()
}

// passCount counts degradations recorded during one pass.
func (g *guard) passCount(pass string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for _, d := range g.degs {
		if d.Pass == pass {
			n++
		}
	}
	return n
}

// list returns the recorded degradations in deterministic order.
func (g *guard) list() []resilience.Degradation {
	g.mu.Lock()
	out := append([]resilience.Degradation(nil), g.degs...)
	g.mu.Unlock()
	resilience.Sort(out)
	return out
}

// sweep runs after a traversal the run's context may have cut short:
// degrade answers every position of procs still unfinished with the
// pass's sound fallback, and each is recorded as a degradation for the
// reason the context ended. A no-op while the context is live.
func (g *guard) sweep(pass string, procs []*sem.Proc, unfinished func(i int) bool, degrade func(i int)) {
	if g.ctx.Err() == nil {
		return
	}
	reason, detail := g.ctxReason()
	for i, p := range procs {
		if unfinished(i) {
			degrade(i)
			g.record(resilience.Degradation{Proc: p.Name, Pass: pass, Reason: reason, Detail: detail})
		}
	}
}

// ctxReason classifies why the guard's context ended.
func (g *guard) ctxReason() (reason resilience.Reason, detail string) {
	defer func() {
		reason, detail = resilience.Classify(recover())
	}()
	resilience.TripCtx(g.ctx.Err())
	return
}

// emptyFI is the all-⊥ flow-insensitive solution: no constant formals,
// no constant globals. It is the fallback's fallback, used when the FI
// computation itself faults.
func emptyFI(opts Options) *fiSolution {
	return &fiSolution{
		opts:         opts,
		formals:      map[*sem.Var]lattice.Elem{},
		globalConsts: map[*sem.Var]val.Value{},
		fpBind:       map[*sem.Var][]*sem.Var{},
		edgeClass:    map[*ir.CallInstr][]fiArgClass{},
	}
}

// entryEnvFor builds the FI entry environment of p: constant formals
// plus the program-wide constant globals — exactly the environment
// toResult reports for the flow-insensitive method.
func (s *fiSolution) entryEnvFor(p *sem.Proc) lattice.Env[*sem.Var] {
	env := make(lattice.Env[*sem.Var], len(p.Params)+len(s.globalConsts))
	for _, f := range p.Params {
		if e := s.formals[f]; e.IsConst() {
			env[f] = e
		}
	}
	for g, v := range s.globalConsts {
		env[g] = lattice.Const(v)
	}
	return env
}

// degradedSummary is p's answer from the FI solution: every call site
// conservatively reachable, argument and global values taken from the
// flow-insensitive classification. Dependents consume it through the
// normal caller-summary path; Degraded marks it so the incremental
// engine never commits it as a full-precision baseline.
func degradedSummary(ictx *Context, p *sem.Proc, fi *fiSolution) *incr.ProcSummary {
	globals := ictx.Prog.Sem.Globals
	calls := ictx.Prog.FuncOf[p].Calls
	sum := &incr.ProcSummary{
		Degraded: true,
		Entry:    scc.Frame(ictx.Prog.FuncOf[p], fi.entryEnvFor(p)),
		Sites:    make([]incr.SiteValues, len(calls)),
	}
	for k, call := range calls {
		gidx := ictx.MR.RefGlobals(call.Callee)
		sv := incr.SiteValues{
			Reachable: true,
			Args:      make([]lattice.Elem, len(call.Args)),
			GlobIdx:   gidx,
			GlobVals:  make([]lattice.Elem, len(gidx)),
		}
		for i := range call.Args {
			sv.Args[i] = fi.EdgeArg(call, i)
		}
		for j, gi := range gidx {
			sv.GlobVals[j] = fi.GlobalElem(globals[gi])
		}
		sum.Sites[k] = sv
	}
	return sum
}
