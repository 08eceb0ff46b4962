package fsicp

import "fsicp/internal/icp"

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
// it. The prebuilt SSA is dropped; the next analysis rebuilds it.
func TrackAllGlobals(p *Program) {
	for _, fn := range p.ctx.Prog.Funcs {
		fn.SetGlobals(p.ctx.Prog.Sem.Globals)
	}
	p.ctx.InvalidateSSA()
}
