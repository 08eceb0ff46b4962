package fsicp

import (
	"fsicp/internal/icp"
	"fsicp/internal/incr"
)

// ContextOf exposes a program's interprocedural context to the external
// tests that check IR invariants the facade does not surface.
func ContextOf(p *Program) *icp.Context { return p.ctx }

// ResultOf exposes an analysis's raw ICP result to the same tests.
func ResultOf(a *Analysis) *icp.Result { return a.res }

// WithoutDeltaSkip returns cfg with the fixpoint passes' delta skips
// off, so every round and refresh visit re-evaluates.
func WithoutDeltaSkip(cfg Config) Config {
	cfg.noDeltaSkip = true
	return cfg
}

// TrackAllGlobals gives every function of p the dense global domain —
// every program global in its segment, as before modref installed
// REF*∪MOD* segments — so tests can compare the sparse domain against
// it. The calls' exit slots move with the segments. The SSA built so
// far is dropped; the next analysis rebuilds it.
func TrackAllGlobals(p *Program) {
	for _, fn := range p.ctx.Prog.Funcs {
		fn.SetGlobals(p.ctx.Prog.Sem.Globals)
	}
	p.ctx.MR.FillExitSlots(p.ctx.Prog, p.ctx.CG)
	p.ctx.InvalidateSSA()
}

// StaleKeys checks the memoized key of every reachable function of p
// against a freshly computed incr.ProcFingerprint, once an analysis
// with an engine has keyed them: it names each function whose memo is
// missing or differs.
func StaleKeys(p *Program) []string {
	var stale []string
	ctx := p.ctx
	for _, q := range ctx.CG.Reachable {
		fn := ctx.Prog.FuncOf[q]
		if key, _, ok := fn.KeyMemo(); !ok || key != incr.ProcFingerprint(q, fn, ctx.MR.RefGlobals) {
			stale = append(stale, q.Name)
		}
	}
	return stale
}
