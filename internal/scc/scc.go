// Package scc implements the Sparse Conditional Constant propagation
// algorithm of Wegman and Zadeck (TOPLAS 1991) over the SSA overlay —
// the flow-sensitive intraprocedural engine the paper builds on.
//
// The propagator is optimistic: every SSA definition starts at ⊤, blocks
// become executable only when reached along an executable edge, and
// branches on constant conditions keep the untaken side unreachable, so
// code made dead by interprocedural constants is discarded during the
// propagation (which may in turn expose more constants — the paper's
// Figure 1 relies on exactly this).
//
// Interprocedural behaviour is injected through Options: the entry
// environment supplies the lattice values of formals and globals at
// procedure entry, and the CallResult hook supplies function-result
// values (the return-constant extension). Calls lower their may-defined
// variables (by-ref actuals and globals from MOD) to ⊥.
package scc

import (
	"sync"

	"fsicp/internal/bitset"
	"fsicp/internal/ir"
	"fsicp/internal/lattice"
	"fsicp/internal/resilience"
	"fsicp/internal/sem"
	"fsicp/internal/ssa"
	"fsicp/internal/val"
)

// Options configures a run.
type Options struct {
	// Entry gives the lattice value of formals and globals at procedure
	// entry. Locals and temporaries always start undefined (⊥ on use
	// before def). A nil Entry means every formal and global is ⊥ —
	// plain intraprocedural propagation, as does any variable Entry
	// does not bind.
	Entry lattice.Env[*sem.Var]

	// CallResult, if non-nil, supplies the lattice value of a function
	// call's result (return-constant extension). Nil, or a nil return
	// of ⊥, keeps results unknown.
	CallResult func(call *ir.CallInstr) lattice.Elem

	// CallExit, if non-nil, supplies the post-call lattice value of a
	// variable the call may define (a by-ref actual or modified
	// global), derived from the callee's exit environment. Nil keeps
	// may-defined variables ⊥ after calls.
	CallExit func(call *ir.CallInstr, v *sem.Var) lattice.Elem

	// Budget, if non-nil, meters the propagation: one step per
	// evaluated φ, instruction, or terminator. Exhausting the budget
	// (or its context) aborts Run with a resilience sentinel panic —
	// the caller's recover() wrapper degrades the procedure to the
	// flow-insensitive solution. Since the step sequence depends only
	// on the SSA form and the entry environment, the abort point is
	// deterministic.
	Budget *resilience.Budget

	// Transient draws the Result's backing storage (Values, BlockExec,
	// the edge-executable set) from a pool instead of allocating fresh.
	// The caller promises to call Result.Release once it has extracted
	// what it needs; wavefront workers that summarize-and-discard use
	// this so per-procedure result tables stop costing one allocation
	// set per scc run. The fixpoint is byte-identical either way: every
	// pooled buffer is fully reinitialised before use.
	Transient bool
}

// Result holds the fixpoint.
type Result struct {
	S      *ssa.SSA
	Values []lattice.Elem // indexed by Definition.ID
	// BlockExec[b.Index] reports whether block b is executable.
	BlockExec []bool
	// edgeExec records which CFG edges became executable, one bit per
	// (source block, successor slot) — a block has at most two
	// successors; read it through EdgeExecutable.
	edgeExec bitset.Set
	// buf is the pooled backing of a transient result (nil otherwise);
	// Release returns it.
	buf *resultBuf
}

// resultBuf is the poolable backing storage of a transient Result.
type resultBuf struct {
	values    []lattice.Elem
	blockExec []bool
	edgeExec  bitset.Set
}

var resultPool = sync.Pool{New: func() any { return new(resultBuf) }}

// Release returns a transient result's backing storage to the pool and
// clears the receiver; the result must not be read afterwards. A no-op
// on nil, non-transient, or already released results, so callers can
// release unconditionally.
func (r *Result) Release() {
	if r == nil || r.buf == nil {
		return
	}
	buf := r.buf
	r.buf = nil
	r.S, r.Values, r.BlockExec, r.edgeExec = nil, nil, nil, nil
	resultPool.Put(buf)
}

// grow returns s resized to n elements, reusing its backing array when
// large enough. Contents are unspecified; callers reinitialise.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// EdgeExecutable reports whether the CFG edge from→to (block indices)
// became executable during the propagation.
func (r *Result) EdgeExecutable(from, to int) bool {
	return r.edgeExec.Has(edgeBit(r.S.Fn.Blocks[from], to))
}

// edgeBit returns the edge-executable bit of the CFG edge from→to:
// 2*from.Index plus the first successor slot leading to to, so an If
// whose arms target the same block has one bit, shared by both of the
// target's entries for it in Preds. It returns -1, a bit that is never
// set, when to is not a successor.
func edgeBit(from *ir.Block, to int) int {
	for k, s := range from.Succs {
		if s.Index == to {
			return 2*from.Index + k
		}
	}
	return -1
}

type engine struct {
	s    *ssa.SSA
	opts Options
	res  *Result

	sc *scratch
}

// scratch is the per-run transient state: the two Wegman–Zadeck
// worklists and the visited marks. None of it escapes into the Result,
// so it is pooled — wavefront workers and Session re-analyses reuse
// the buffers instead of reallocating them for every procedure.
type scratch struct {
	flowWork []flowEdge
	ssaWork  []*ssa.Definition
	visited  bitset.Set // block instruction lists evaluated once
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

type flowEdge struct{ from, to int }

// Run computes the SCC fixpoint for s. Results are byte-identical
// whether the scratch buffers come warm from the pool or cold: the
// worklist order depends only on their contents, and every buffer is
// reset before use.
func Run(s *ssa.SSA, opts Options) *Result {
	nb := len(s.Fn.Blocks)
	sc := scratchPool.Get().(*scratch)
	sc.flowWork = sc.flowWork[:0]
	sc.ssaWork = sc.ssaWork[:0]
	sc.visited = sc.visited.Reset(nb)
	res := &Result{S: s}
	if opts.Transient {
		// Pooled backing; a Run aborted by a budget panic simply drops
		// the buffer (the pool regrows), keeping the unwind path free of
		// half-initialised returns.
		buf := resultPool.Get().(*resultBuf)
		buf.values = grow(buf.values, len(s.Defs))
		buf.blockExec = grow(buf.blockExec, nb)
		buf.edgeExec = buf.edgeExec.Reset(2 * nb)
		clear(buf.blockExec)
		res.Values, res.BlockExec, res.edgeExec = buf.values, buf.blockExec, buf.edgeExec
		res.buf = buf
	} else {
		res.Values = make([]lattice.Elem, len(s.Defs))
		res.BlockExec = make([]bool, nb)
		res.edgeExec = bitset.New(2 * nb)
	}
	e := &engine{s: s, opts: opts, res: res, sc: sc}
	for i := range e.res.Values {
		e.res.Values[i] = lattice.TopElem()
	}
	// Seed entry definitions. A budget abort unwinds through here via
	// panic, so the scratch is returned in a deferred put; dropping the
	// stale definition pointers keeps a pooled buffer from pinning a
	// dead SSA overlay in memory.
	defer func() {
		sw := sc.ssaWork[:cap(sc.ssaWork)]
		for i := range sw {
			sw[i] = nil
		}
		sc.ssaWork = sc.ssaWork[:0]
		sc.flowWork = sc.flowWork[:0]
		scratchPool.Put(sc)
	}()
	for _, d := range s.EntryDefs {
		switch d.Var.Kind {
		case sem.KindFormal, sem.KindGlobal:
			e.lower(d, opts.Entry.Get(d.Var))
		default:
			// Undefined local/temp: unknown on use-before-def.
			e.lower(d, lattice.BottomElem())
		}
	}
	e.markBlock(s.Dom.RPO[0])
	e.solve()
	return e.res
}

func (e *engine) value(d *ssa.Definition) lattice.Elem { return e.res.Values[d.ID] }

// lower monotonically lowers d's value; queues its uses on change.
func (e *engine) lower(d *ssa.Definition, v lattice.Elem) {
	nw := lattice.Meet(e.res.Values[d.ID], v)
	if nw.Eq(e.res.Values[d.ID]) {
		return
	}
	e.res.Values[d.ID] = nw
	e.sc.ssaWork = append(e.sc.ssaWork, d)
}

func (e *engine) solve() {
	sc := e.sc
	for len(sc.flowWork) > 0 || len(sc.ssaWork) > 0 {
		for len(sc.flowWork) > 0 {
			edge := sc.flowWork[len(sc.flowWork)-1]
			sc.flowWork = sc.flowWork[:len(sc.flowWork)-1]
			e.processEdge(edge)
		}
		for len(sc.ssaWork) > 0 {
			d := sc.ssaWork[len(sc.ssaWork)-1]
			sc.ssaWork = sc.ssaWork[:len(sc.ssaWork)-1]
			e.processUses(d)
		}
	}
}

func (e *engine) addEdge(from, to *ir.Block) {
	if !e.res.edgeExec.Add(edgeBit(from, to.Index)) {
		return
	}
	e.sc.flowWork = append(e.sc.flowWork, flowEdge{from.Index, to.Index})
}

func (e *engine) processEdge(edge flowEdge) {
	b := e.s.Fn.Blocks[edge.to]
	// φs must be re-evaluated whenever a new incoming edge becomes
	// executable.
	for _, phi := range e.s.Phis[b.Index] {
		e.evalPhi(phi)
	}
	if !e.res.BlockExec[b.Index] {
		e.markBlock(b)
	}
}

func (e *engine) markBlock(b *ir.Block) {
	if e.res.BlockExec[b.Index] {
		return
	}
	e.res.BlockExec[b.Index] = true
	if e.sc.visited.Add(b.Index) {
		for _, phi := range e.s.Phis[b.Index] {
			e.evalPhi(phi)
		}
		for _, in := range b.Instrs {
			e.evalInstr(in)
		}
		e.evalTerm(b)
	}
}

func (e *engine) processUses(d *ssa.Definition) {
	for _, u := range d.Uses {
		switch u.Kind {
		case ssa.UseInstr:
			if e.res.BlockExec[u.Block.Index] {
				e.evalInstr(u.Instr)
			}
		case ssa.UsePhi:
			if e.res.BlockExec[u.Phi.Block.Index] {
				e.evalPhi(u.Phi)
			}
		case ssa.UseTerm:
			if e.res.BlockExec[u.Block.Index] {
				e.evalTerm(u.Block)
			}
		}
	}
}

func (e *engine) evalPhi(phi *Phi) {
	e.opts.Budget.Step(1)
	acc := lattice.TopElem()
	for i, p := range phi.Block.Preds {
		if !e.res.edgeExec.Has(edgeBit(p, phi.Block.Index)) {
			continue
		}
		if phi.Args[i] == nil {
			continue // predecessor unreachable during renaming
		}
		acc = lattice.Meet(acc, e.value(phi.Args[i]))
	}
	e.lower(phi.Def, acc)
}

// Phi aliases ssa.Phi for readability inside this package.
type Phi = ssa.Phi

func (e *engine) evalInstr(in ir.Instr) {
	e.opts.Budget.Step(1)
	defs := e.s.DefsOf(in)
	uses := e.s.UsesOf(in)
	switch in := in.(type) {
	case *ir.ConstInstr:
		e.lower(defs[0], lattice.Const(in.Val))
	case *ir.CopyInstr:
		e.lower(defs[0], e.value(uses[0]))
	case *ir.UnaryInstr:
		e.lower(defs[0], e.foldUnary(in, e.value(uses[0])))
	case *ir.BinaryInstr:
		e.lower(defs[0], e.foldBinary(in, e.value(uses[0]), e.value(uses[1])))
	case *ir.ReadInstr:
		e.lower(defs[0], lattice.BottomElem())
	case *ir.PrintInstr:
		// no defs
	case *ir.CallInstr:
		k := 0
		if in.Dst != nil {
			rv := lattice.BottomElem()
			if e.opts.CallResult != nil {
				rv = e.opts.CallResult(in)
			}
			e.lower(defs[0], rv)
			k = 1
		}
		for ; k < len(defs); k++ {
			if e.opts.CallExit != nil {
				e.lower(defs[k], e.opts.CallExit(in, defs[k].Var))
			} else {
				e.lower(defs[k], lattice.BottomElem())
			}
		}
	case *ir.ClobberInstr:
		for _, d := range defs {
			e.lower(d, lattice.BottomElem())
		}
	}
}

func (e *engine) foldUnary(in *ir.UnaryInstr, x lattice.Elem) lattice.Elem {
	switch {
	case x.IsTop():
		return lattice.TopElem()
	case x.IsBottom():
		return lattice.BottomElem()
	}
	v, ok := val.Unary(in.Op, x.Val)
	if !ok {
		return lattice.BottomElem()
	}
	return lattice.Const(v)
}

func (e *engine) foldBinary(in *ir.BinaryInstr, x, y lattice.Elem) lattice.Elem {
	if x.IsBottom() || y.IsBottom() {
		return lattice.BottomElem()
	}
	if x.IsTop() || y.IsTop() {
		return lattice.TopElem()
	}
	v, ok := val.Binary(in.Op, x.Val, y.Val)
	if !ok {
		// Folding failed (e.g. integer division by a constant zero): a
		// runtime error at execution time, so the result is unknown.
		return lattice.BottomElem()
	}
	return lattice.Const(v)
}

func (e *engine) evalTerm(b *ir.Block) {
	e.opts.Budget.Step(1)
	switch t := b.Term.(type) {
	case *ir.Jump:
		e.addEdge(b, t.Target)
	case *ir.If:
		cond := e.value(e.s.TermUses[b.Index][0])
		switch {
		case cond.IsTop():
			// not yet known; wait
		case cond.IsConst():
			if cond.Val.B {
				e.addEdge(b, t.Then)
			} else {
				e.addEdge(b, t.Else)
			}
		default:
			e.addEdge(b, t.Then)
			e.addEdge(b, t.Else)
		}
	case *ir.Ret:
		// no successors
	}
}

// --- Result queries -----------------------------------------------------

// ValueOf returns the fixpoint value of a definition.
func (r *Result) ValueOf(d *ssa.Definition) lattice.Elem { return r.Values[d.ID] }

// Reachable reports whether the call instruction's block is executable.
func (r *Result) Reachable(call *ir.CallInstr) bool {
	return r.BlockExec[call.Block.Index]
}

// ArgValue returns the lattice value of the i-th actual at a call site,
// or ⊤ if the call site is unreachable (an unreachable call contributes
// nothing to the meet at the callee).
func (r *Result) ArgValue(call *ir.CallInstr, i int) lattice.Elem {
	if !r.Reachable(call) {
		return lattice.TopElem()
	}
	return r.Values[r.S.UsesOf(call)[i].ID]
}

// GlobalValueAtCall returns the lattice value of global g immediately
// before the call, or ⊤ if the call is unreachable.
func (r *Result) GlobalValueAtCall(call *ir.CallInstr, g *sem.Var) lattice.Elem {
	if !r.Reachable(call) {
		return lattice.TopElem()
	}
	return r.Values[r.S.GlobalAtCall(call, g).ID]
}

// ReturnValue returns the meet of all executable return values (⊤ if no
// executable return carries a value, e.g. the function never returns).
func (r *Result) ReturnValue() lattice.Elem {
	acc := lattice.TopElem()
	for _, b := range r.S.Dom.RPO {
		if !r.BlockExec[b.Index] {
			continue
		}
		if t, ok := b.Term.(*ir.Ret); ok && t.Val != nil {
			acc = lattice.Meet(acc, r.Values[r.S.TermUses[b.Index][0].ID])
		}
	}
	return acc
}

// VarValueAtEntry returns the entry value the fixpoint settled on for a
// formal or global.
func (r *Result) VarValueAtEntry(v *sem.Var) lattice.Elem {
	return r.Values[r.S.EntryDef(v).ID]
}

// CanReturn reports whether some return point is executable.
func (r *Result) CanReturn() bool {
	for bi, snap := range r.S.RetSnapshots {
		if snap != nil && r.BlockExec[bi] {
			return true
		}
	}
	return false
}

// ExitValue returns the meet of v's value over all executable return
// points — the value v holds when the procedure returns (⊤ if the
// procedure never returns, e.g. infinite loop or unreachable).
func (r *Result) ExitValue(v *sem.Var) lattice.Elem {
	vi := r.S.Fn.VarOrd(v)
	acc := lattice.TopElem()
	for bi, snap := range r.S.RetSnapshots {
		if snap == nil || !r.BlockExec[bi] {
			continue
		}
		acc = lattice.Meet(acc, r.Values[snap[vi].ID])
	}
	return acc
}
