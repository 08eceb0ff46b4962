// Package irbuild lowers a checked MiniFort program (sem.Program) to the
// CFG IR (ir.Program).
//
// Lowering notes:
//   - Expressions are flattened to three-address instructions over
//     compiler temporaries.
//   - && and || are strict (both operands always evaluated), like
//     Fortran's .AND./.OR.; they lower to ordinary binary instructions.
//   - A counted for-loop evaluates its upper bound once into a
//     temporary; its step must be a non-zero integer literal (checked
//     here), which fixes the loop direction statically.
//   - A bare identifier actual is passed by reference; any other actual
//     expression is evaluated into a temporary and passed by value, so
//     callee stores into the corresponding formal are lost
//     (Fortran-style argument temporaries).
//   - Code after a return/break/continue lowers into an unreachable
//     block, which downstream phases prune via Func.ReachableBlocks.
package irbuild

import (
	"fmt"

	"fsicp/internal/ast"
	"fsicp/internal/ir"
	"fsicp/internal/sem"
	"fsicp/internal/token"
	"fsicp/internal/val"
)

// Build lowers every procedure of p. It returns an error only for the
// one well-formedness rule not checked by sem: a for-loop step that is
// not a non-zero integer literal.
func Build(p *sem.Program) (*ir.Program, error) {
	pb := NewBuilder(p)
	for i := 0; i < pb.NumProcs(); i++ {
		pb.BuildProc(i)
	}
	return pb.Finish()
}

// A Builder is an in-flight lowering whose per-procedure work can be
// fanned across goroutines: BuildProc(i) lowers procedure i touching
// only that procedure's state, and Finish is the serial epilogue that
// assigns the dense call-site numbering in procedure order — exactly
// the IDs serial lowering hands out, so results are byte-identical at
// every worker count.
type Builder struct {
	sem   *sem.Program
	funcs []*ir.Func
	errs  []error
}

// NewBuilder prepares lowering of every procedure of p.
func NewBuilder(p *sem.Program) *Builder {
	return &Builder{
		sem:   p,
		funcs: make([]*ir.Func, len(p.Procs)),
		errs:  make([]error, len(p.Procs)),
	}
}

// NumProcs returns the number of procedures to lower.
func (pb *Builder) NumProcs() int { return len(pb.sem.Procs) }

// BuildProc lowers procedure i, including its per-function instruction
// numbering. Safe to call concurrently for distinct i.
func (pb *Builder) BuildProc(i int) {
	b := &builder{sem: pb.sem}
	f, err := b.buildFunc(pb.sem.Procs[i])
	if err != nil {
		pb.errs[i] = err
		return
	}
	f.NumberInstrs()
	pb.funcs[i] = f
}

// Finish assembles the program: dense call-site numbering,
// per-function variable registration, and the Funcs/FuncOf
// tables, all in procedure order. Returns the error of the lowest
// failed procedure (the one serial lowering would have stopped at).
// Functions track only their own formals, locals and temporaries
// here; modref installs their global segments.
func (pb *Builder) Finish() (*ir.Program, error) {
	for _, err := range pb.errs {
		if err != nil {
			return nil, err
		}
	}
	prog := &ir.Program{
		Sem:    pb.sem,
		FuncOf: make(map[*sem.Proc]*ir.Func, len(pb.funcs)),
	}
	for _, f := range pb.funcs {
		collectVars(f)
		for _, ci := range f.Calls {
			ci.ID = len(prog.CallSites)
			prog.CallSites = append(prog.CallSites, ci)
		}
		prog.Funcs = append(prog.Funcs, f)
		prog.FuncOf[f.Proc] = f
	}
	return prog, nil
}

func collectVars(f *ir.Func) {
	for _, v := range f.Proc.Params {
		f.RegisterVar(v)
	}
	for _, v := range f.Proc.Locals {
		f.RegisterVar(v)
	}
}

type loopCtx struct {
	continueTo *ir.Block
	breakTo    *ir.Block
}

type builder struct {
	sem   *sem.Program
	fn    *ir.Func
	cur   *ir.Block
	loops []loopCtx
	err   error
}

func (b *builder) buildFunc(proc *sem.Proc) (*ir.Func, error) {
	f := &ir.Func{Proc: proc}
	b.fn = f
	b.cur = f.NewBlock()
	b.block(proc.Decl.Body)
	if b.cur.Term == nil {
		if proc.IsFunc {
			// Falling off the end of a func returns the zero value of
			// its result type (the interpreter matches this).
			t := proc.NewTemp(proc.Result)
			b.emit(&ir.ConstInstr{Dst: t, Val: val.Zero(proc.Result)})
			b.cur.SetTerm(&ir.Ret{Val: t})
		} else {
			b.cur.SetTerm(&ir.Ret{})
		}
	}
	// Terminate any unreachable trailing blocks so the IR is well
	// formed everywhere.
	for _, blk := range f.Blocks {
		if blk.Term == nil {
			blk.SetTerm(&ir.Ret{})
		}
	}
	return f, b.err
}

func (b *builder) errorf(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf(format, args...)
	}
}

// ensure makes sure there is a current, unterminated block to emit into;
// statements after a terminator land in a fresh unreachable block.
func (b *builder) ensure() {
	if b.cur.Term != nil {
		b.cur = b.fn.NewBlock()
	}
}

func (b *builder) emit(in ir.Instr) {
	b.ensure()
	b.cur.Instrs = append(b.cur.Instrs, in)
}

func (b *builder) terminate(t ir.Terminator) {
	b.ensure()
	b.cur.SetTerm(t)
}

func (b *builder) block(blk *ast.Block) {
	for _, s := range blk.Stmts {
		b.stmt(s)
	}
}

func (b *builder) varOf(id *ast.Ident) *sem.Var {
	v := b.sem.Info.Refs[id]
	if v == nil {
		panic("irbuild: unresolved identifier " + id.Name)
	}
	return v
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.VarDecl:
		if s.Init != nil {
			v := b.lookupLocal(s)
			b.exprInto(v, s.Init)
		}
	case *ast.AssignStmt:
		b.exprInto(b.varOf(s.Name), s.Value)
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.WhileStmt:
		b.whileStmt(s)
	case *ast.ForStmt:
		b.forStmt(s)
	case *ast.CallStmt:
		b.call(s.Call, nil)
	case *ast.ReturnStmt:
		if s.Value != nil {
			v := b.expr(s.Value)
			b.terminate(&ir.Ret{Val: v})
		} else {
			b.terminate(&ir.Ret{})
		}
	case *ast.ReadStmt:
		b.emit(&ir.ReadInstr{Dst: b.varOf(s.Name)})
	case *ast.PrintStmt:
		var args []ir.PrintArg
		for _, a := range s.Args {
			if sl, ok := a.(*ast.StringLit); ok {
				args = append(args, ir.PrintArg{Str: sl.Value})
				continue
			}
			args = append(args, ir.PrintArg{Var: b.expr(a)})
		}
		b.emit(&ir.PrintInstr{Args: args})
	case *ast.BreakStmt:
		if len(b.loops) == 0 {
			panic("irbuild: break outside loop (sem should reject)")
		}
		b.terminate(&ir.Jump{Target: b.loops[len(b.loops)-1].breakTo})
	case *ast.ContinueStmt:
		if len(b.loops) == 0 {
			panic("irbuild: continue outside loop (sem should reject)")
		}
		b.terminate(&ir.Jump{Target: b.loops[len(b.loops)-1].continueTo})
	case *ast.Block:
		b.block(s)
	}
}

// lookupLocal finds the sem.Var a VarDecl introduced. sem registers the
// local in Proc.Locals in declaration order; match by name and position.
func (b *builder) lookupLocal(d *ast.VarDecl) *sem.Var {
	for _, v := range b.fn.Proc.Locals {
		if v.Name == d.Name && v.Pos == d.KwPos {
			return v
		}
	}
	panic("irbuild: local not registered: " + d.Name)
}

func (b *builder) ifStmt(s *ast.IfStmt) {
	cond := b.expr(s.Cond)
	thenB := b.fn.NewBlock()
	elseB := b.fn.NewBlock()
	b.terminate(&ir.If{Cond: cond, Then: thenB, Else: elseB})

	join := b.fn.NewBlock()
	b.cur = thenB
	b.block(s.Then)
	if b.cur.Term == nil {
		b.cur.SetTerm(&ir.Jump{Target: join})
	}
	b.cur = elseB
	if s.Else != nil {
		b.stmt(s.Else)
	}
	if b.cur.Term == nil {
		b.cur.SetTerm(&ir.Jump{Target: join})
	}
	b.cur = join
}

func (b *builder) whileStmt(s *ast.WhileStmt) {
	header := b.fn.NewBlock()
	b.terminate(&ir.Jump{Target: header})
	b.cur = header
	cond := b.expr(s.Cond)
	body := b.fn.NewBlock()
	exit := b.fn.NewBlock()
	// The condition may span several blocks; terminate whichever block
	// holds the final condition value.
	b.terminate(&ir.If{Cond: cond, Then: body, Else: exit})

	b.loops = append(b.loops, loopCtx{continueTo: header, breakTo: exit})
	b.cur = body
	b.block(s.Body)
	if b.cur.Term == nil {
		b.cur.SetTerm(&ir.Jump{Target: header})
	}
	b.loops = b.loops[:len(b.loops)-1]
	b.cur = exit
}

func (b *builder) forStmt(s *ast.ForStmt) {
	step := int64(1)
	if s.Step != nil {
		v, ok := sem.FoldNegatedLiteral(stripParens(s.Step))
		if !ok || v.Type != ast.TypeInt || v.I == 0 {
			b.errorf("for-loop step must be a non-zero integer literal")
			return
		}
		step = v.I
	}
	iv := b.varOf(s.Var)
	b.exprInto(iv, s.Lo)
	limit := b.newTemp(ast.TypeInt)
	b.exprInto(limit, s.Hi)

	header := b.fn.NewBlock()
	b.terminate(&ir.Jump{Target: header})
	b.cur = header
	cond := b.newTemp(ast.TypeBool)
	op := token.LEQ
	if step < 0 {
		op = token.GEQ
	}
	b.emit(&ir.BinaryInstr{Dst: cond, Op: op, X: iv, Y: limit})
	body := b.fn.NewBlock()
	exit := b.fn.NewBlock()
	latch := b.fn.NewBlock()
	b.terminate(&ir.If{Cond: cond, Then: body, Else: exit})

	b.loops = append(b.loops, loopCtx{continueTo: latch, breakTo: exit})
	b.cur = body
	b.block(s.Body)
	if b.cur.Term == nil {
		b.cur.SetTerm(&ir.Jump{Target: latch})
	}
	b.loops = b.loops[:len(b.loops)-1]

	b.cur = latch
	stepT := b.newTemp(ast.TypeInt)
	b.emit(&ir.ConstInstr{Dst: stepT, Val: val.Int(step)})
	b.emit(&ir.BinaryInstr{Dst: iv, Op: token.ADD, X: iv, Y: stepT})
	b.terminate(&ir.Jump{Target: header})
	b.cur = exit
}

func stripParens(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// newTemp creates a compiler temporary of the function's procedure.
func (b *builder) newTemp(t ast.Type) *sem.Var { return b.fn.Proc.NewTemp(t) }

// expr lowers e and returns the variable holding its value.
func (b *builder) expr(e ast.Expr) *sem.Var {
	if id, ok := stripParens(e).(*ast.Ident); ok {
		return b.varOf(id)
	}
	t := b.sem.Info.Types[e]
	if t == ast.TypeInvalid {
		t = ast.TypeInt // error recovery; sem already reported
	}
	tmp := b.newTemp(t)
	b.exprInto(tmp, e)
	return tmp
}

// exprInto lowers e, storing its value into dst.
func (b *builder) exprInto(dst *sem.Var, e ast.Expr) {
	switch e := e.(type) {
	case *ast.ParenExpr:
		b.exprInto(dst, e.X)
	case *ast.Ident:
		b.emit(&ir.CopyInstr{Dst: dst, Src: b.varOf(e)})
	case *ast.IntLit:
		b.emit(&ir.ConstInstr{Dst: dst, Val: val.Int(e.Value)})
	case *ast.RealLit:
		b.emit(&ir.ConstInstr{Dst: dst, Val: val.Real(e.Value)})
	case *ast.BoolLit:
		b.emit(&ir.ConstInstr{Dst: dst, Val: val.Bool(e.Value)})
	case *ast.UnaryExpr:
		x := b.expr(e.X)
		b.emit(&ir.UnaryInstr{Dst: dst, Op: e.Op, X: x})
	case *ast.BinaryExpr:
		x := b.expr(e.X)
		y := b.expr(e.Y)
		b.emit(&ir.BinaryInstr{Dst: dst, Op: e.Op, X: x, Y: y})
	case *ast.CallExpr:
		b.call(e, dst)
	case *ast.StringLit:
		panic("irbuild: string literal outside print")
	default:
		panic(fmt.Sprintf("irbuild: unexpected expression %T", e))
	}
}

// call lowers a call; dst receives the function result (nil for
// subroutine call statements).
func (b *builder) call(e *ast.CallExpr, dst *sem.Var) {
	callee := b.sem.Info.Callees[e]
	if callee == nil {
		panic("irbuild: unresolved callee " + e.Fun.Name)
	}
	ci := &ir.CallInstr{Callee: callee, ArgSyntax: e.Args}
	for _, a := range e.Args {
		if id, ok := a.(*ast.Ident); ok {
			v := b.varOf(id)
			ci.Args = append(ci.Args, v)
			ci.ByRef = append(ci.ByRef, v)
			continue
		}
		v := b.expr(a)
		ci.Args = append(ci.Args, v)
		ci.ByRef = append(ci.ByRef, nil)
	}
	if callee.IsFunc {
		if dst == nil {
			dst = b.newTemp(callee.Result) // result discarded
		}
		ci.Dst = dst
	}
	b.ensure()
	ci.Block = b.cur
	ci.SiteIdx = len(b.fn.Calls)
	// ci.ID (the program-wide call-site number) is assigned by
	// Builder.Finish, the serial epilogue, so lowering can run per
	// procedure without a shared counter.
	b.fn.Calls = append(b.fn.Calls, ci)
	b.cur.Instrs = append(b.cur.Instrs, ci)
}
