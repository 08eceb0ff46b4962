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
// frame supplies the lattice values of formals and globals at
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
	// Entry is the procedure's entry environment as a frame
	// (ir.Func.FrameSlot): the lattice value of each formal, by
	// position, then of each global of the segment. Locals and
	// temporaries always start undefined (⊥ on use before def). A nil
	// Entry means every formal and global is ⊥ — plain
	// intraprocedural propagation.
	Entry []lattice.Elem

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

// Frame converts a map-keyed entry environment to fn's frame: env's
// value of each formal, then of each global of the segment, ⊥ where
// env binds nothing. The variables it drops are the ones Run never
// reads.
func Frame(fn *ir.Func, env lattice.Env[*sem.Var]) []lattice.Elem {
	frame := make([]lattice.Elem, fn.FrameLen())
	for k := range frame {
		frame[k] = env.Get(fn.FrameVar(k))
	}
	return frame
}

// Result holds the fixpoint.
type Result struct {
	S      *ssa.SSA
	Values []lattice.Elem // indexed by definition ID
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
// the buffers instead of reallocating them for every procedure. It
// holds definition IDs and block indices, never a pointer, so a pooled
// buffer pins no overlay.
type scratch struct {
	flowWork []flowEdge
	ssaWork  []int32
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
	// Seed entry definitions: formals and globals from their frame
	// slots, and undefined locals and temporaries ⊥ (unknown on
	// use-before-def). A budget abort unwinds through here via panic,
	// so the scratch is returned in a deferred put.
	defer scratchPool.Put(sc)
	for vi, d := range s.EntryDefs {
		v := lattice.BottomElem()
		if k := s.Fn.OrdSlot(vi); k >= 0 && k < len(opts.Entry) {
			v = opts.Entry[k]
		}
		e.lower(d, v)
	}
	e.markBlock(s.Dom.RPO[0])
	e.solve()
	return e.res
}

func (e *engine) value(d int32) lattice.Elem { return e.res.Values[d] }

// lower monotonically lowers d's value; queues its uses on change.
func (e *engine) lower(d int32, v lattice.Elem) {
	nw := lattice.Meet(e.res.Values[d], v)
	if nw.Eq(e.res.Values[d]) {
		return
	}
	e.res.Values[d] = nw
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
	for k := range e.s.Phis[b.Index] {
		e.evalPhi(&e.s.Phis[b.Index][k])
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
		for k := range e.s.Phis[b.Index] {
			e.evalPhi(&e.s.Phis[b.Index][k])
		}
		for _, in := range b.Instrs {
			e.evalInstr(in)
		}
		e.evalTerm(b)
	}
}

func (e *engine) processUses(d int32) {
	s := e.s
	for u := s.Defs[d].FirstUse; u != ssa.None; u = s.Uses[u].Next {
		r := &s.Uses[u]
		if !e.res.BlockExec[r.Block] {
			continue
		}
		switch r.Kind {
		case ssa.UseInstr:
			e.evalInstr(s.Instr(r.Site))
		case ssa.UsePhi:
			e.evalPhi(&s.Phis[r.Block][r.Site])
		case ssa.UseTerm:
			e.evalTerm(s.Fn.Blocks[r.Block])
		}
	}
}

func (e *engine) evalPhi(phi *ssa.Phi) {
	e.opts.Budget.Step(1)
	acc := lattice.TopElem()
	args := e.s.PhiArgs(phi)
	for i, p := range e.s.Fn.Blocks[phi.Block].Preds {
		if !e.res.edgeExec.Has(edgeBit(p, int(phi.Block))) {
			continue
		}
		if args[i] == ssa.None {
			continue // predecessor unreachable during renaming
		}
		acc = lattice.Meet(acc, e.value(args[i]))
	}
	e.lower(phi.Def, acc)
}

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
				e.lower(defs[k], e.opts.CallExit(in, e.s.Var(defs[k])))
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
		cond := e.value(e.s.TermUsesOf(b)[0])
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

// ValueOf returns the fixpoint value of definition d.
func (r *Result) ValueOf(d int32) lattice.Elem { return r.Values[d] }

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
	return r.Values[r.S.UsesOf(call)[i]]
}

// GlobalValueAtCall returns the lattice value, immediately before the
// call, of the global at position k of the caller's global segment, or
// ⊤ if the call is unreachable.
func (r *Result) GlobalValueAtCall(call *ir.CallInstr, k int) lattice.Elem {
	if !r.Reachable(call) {
		return lattice.TopElem()
	}
	return r.Values[r.S.GlobalsAtCall(call)[k]]
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
			acc = lattice.Meet(acc, r.Values[r.S.TermUsesOf(b)[0]])
		}
	}
	return acc
}

// CanReturn reports whether some return point is executable.
func (r *Result) CanReturn() bool {
	for _, b := range r.S.Fn.Blocks {
		if _, ok := b.Term.(*ir.Ret); ok && r.BlockExec[b.Index] {
			return true
		}
	}
	return false
}

// ExitValue returns the meet, over all executable return points, of
// the value of frame slot k's variable (ir.Func.FrameVar) — the value it
// holds when the procedure returns (⊤ if the procedure never returns,
// e.g. infinite loop or unreachable).
func (r *Result) ExitValue(k int) lattice.Elem {
	acc := lattice.TopElem()
	for _, b := range r.S.Fn.Blocks {
		if _, ok := b.Term.(*ir.Ret); ok && r.BlockExec[b.Index] {
			acc = lattice.Meet(acc, r.Values[r.S.RetSnapshot(b)[k]])
		}
	}
	return acc
}
