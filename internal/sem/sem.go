// Package sem performs name resolution and type checking for MiniFort
// and produces the semantic Program representation consumed by every
// later phase (IR construction, call graph, MOD/REF, constant
// propagation, interpretation).
package sem

import (
	"maps"
	"slices"
	"strconv"

	"fsicp/internal/ast"
	"fsicp/internal/source"
	"fsicp/internal/val"
)

// VarKind classifies a variable.
type VarKind int

const (
	KindLocal VarKind = iota
	KindFormal
	KindGlobal
	KindTemp // compiler-introduced temporary (IR construction)
)

func (k VarKind) String() string {
	switch k {
	case KindLocal:
		return "local"
	case KindFormal:
		return "formal"
	case KindGlobal:
		return "global"
	case KindTemp:
		return "temp"
	}
	return "unknown"
}

// Var is one variable: a global, a formal parameter (by reference), a
// procedure local, or a compiler temporary.
type Var struct {
	Name  string
	Kind  VarKind
	Type  ast.Type
	Index int   // formal position in Owner, or global index in Program
	Owner *Proc // nil for globals
	Pos   source.Pos

	// Slot is 1 + the variable's position in its owner's
	// ir.Func.AllVars, or 0 while that function does not track it.
	// Written by ir.Func.RegisterVar and SetGlobals; globals leave it 0,
	// since each function finds them in its own global segment.
	Slot int32
}

func (v *Var) String() string {
	if v.Kind == KindGlobal {
		return v.Name
	}
	if v.Owner != nil {
		return v.Owner.Name + "." + v.Name
	}
	return v.Name
}

// IsGlobal reports whether the variable is program-wide.
func (v *Var) IsGlobal() bool { return v.Kind == KindGlobal }

// Proc is one procedure or function.
type Proc struct {
	Name    string
	Index   int
	IsFunc  bool
	Result  ast.Type
	Params  []*Var
	Locals  []*Var
	Uses    []*Var // visible globals, declaration order
	UsesSet map[*Var]bool
	Decl    *ast.ProcDecl

	// The procedure's resolution results, keyed by syntax nodes of its
	// body. Each procedure owns its own, so procedures check
	// concurrently and a Session patch replaces one procedure's results
	// with the procedure.
	//
	// Refs maps every variable-reference Ident to its Var.
	Refs map[*ast.Ident]*Var
	// Callees maps every CallExpr to the invoked procedure.
	Callees map[*ast.CallExpr]*Proc
	// Types maps every expression to its checked type. Lowering
	// (irbuild) is its one reader and releases it.
	Types map[ast.Expr]ast.Type

	ntemps int
}

// NumFormals returns the number of formal parameters.
func (p *Proc) NumFormals() int { return len(p.Params) }

// NewTemp creates a fresh compiler temporary of the given type and
// registers it with the procedure. It touches only p, so lowering may
// create temporaries of distinct procedures concurrently.
func (p *Proc) NewTemp(t ast.Type) *Var {
	p.ntemps++
	v := &Var{
		Name:  "%t" + strconv.Itoa(p.ntemps),
		Kind:  KindTemp,
		Type:  t,
		Owner: p,
	}
	p.Locals = append(p.Locals, v)
	return v
}

// NewLocal creates a fresh source-level local (used by transformation
// passes such as inlining, whose cloned variables should behave like
// programmer-written locals — e.g. they count as substitution sites).
func (p *Proc) NewLocal(name string, t ast.Type) *Var {
	p.ntemps++
	v := &Var{
		Name:  name + "#" + strconv.Itoa(p.ntemps),
		Kind:  KindLocal,
		Type:  t,
		Owner: p,
	}
	p.Locals = append(p.Locals, v)
	return v
}

// Program is a checked whole program.
type Program struct {
	Name       string
	Globals    []*Var
	GlobalInit map[*Var]val.Value // block-data-style initial constants
	Procs      []*Proc
	ProcByName map[string]*Proc
	Main       *Proc
	AST        *ast.Program

	globalByName map[string]*Var
}

// Check resolves and type-checks prog. On failure the error is a
// *source.ErrorList describing every problem found. The resolver (a
// *source.File for single-file programs, a *source.FileSet for merged
// multi-file corpora) is only used to render diagnostic positions.
// Serial convenience wrapper over Begin / CheckProc / Finish.
func Check(prog *ast.Program, file source.PosResolver) (*Program, error) {
	c := Begin(prog, file)
	for k := 0; k < c.NumProcs(); k++ {
		c.CheckProc(k)
	}
	return c.Finish()
}

// A Checker splits Check so the per-procedure checks, which write only
// their own procedure's state, can be fanned across goroutines: Begin
// is the serial prologue that declares every global and procedure,
// CheckProc(k) checks one procedure into its own resolution tables with
// its own scope and diagnostics, and Finish is the serial epilogue that
// checks main and reports every diagnostic in procedure order, exactly
// as a serial check lists them.
type Checker struct {
	errs  *source.ErrorList // the prologue's and epilogue's diagnostics
	p     *Program
	todo  []int                 // procedure indices CheckProc checks
	diags [][]source.Diagnostic // per todo entry
}

// Begin declares prog's globals and procedures and prepares the check
// of every procedure.
func Begin(prog *ast.Program, file source.PosResolver) *Checker {
	c := &Checker{
		errs: &source.ErrorList{File: file},
		p: &Program{
			Name:         prog.Name,
			GlobalInit:   make(map[*Var]val.Value),
			ProcByName:   make(map[string]*Proc),
			AST:          prog,
			globalByName: make(map[string]*Var),
		},
	}
	c.collectGlobals(prog)
	c.collectProcs(prog)
	c.todo = make([]int, len(c.p.Procs))
	for i := range c.todo {
		c.todo[i] = i
	}
	c.diags = make([][]source.Diagnostic, len(c.todo))
	return c
}

// Patch prepares the check of a new version of cur whose global
// declarations, apart from their initializers, and procedure headers
// equal cur's token for token: prog is the new version's syntax, in
// which only the procedures at the changed indices have new
// declarations. The new Program shares cur's globals and unchanged
// procedures; each changed procedure is declared afresh from its new
// declaration, so CheckProc fills a procedure cur does not own and cur
// stays untouched, whatever the check finds. The initializers of
// prog's global declarations are checked into a fresh GlobalInit, as
// Begin checks them. Calls resolve against the new procedure table,
// but an unchanged procedure's own resolution tables still name the
// procedures it called in cur until Rebind.
func Patch(cur *Program, prog *ast.Program, changed []int, file source.PosResolver) *Checker {
	p := &Program{
		Name:         cur.Name,
		Globals:      cur.Globals,
		GlobalInit:   make(map[*Var]val.Value, len(cur.GlobalInit)),
		Procs:        slices.Clone(cur.Procs),
		ProcByName:   maps.Clone(cur.ProcByName),
		AST:          prog,
		globalByName: cur.globalByName,
	}
	for _, i := range changed {
		q := declareProc(prog.Procs[i], i)
		p.Procs[i] = q
		p.ProcByName[q.Name] = q
	}
	c := &Checker{
		errs:  &source.ErrorList{File: file},
		p:     p,
		todo:  changed,
		diags: make([][]source.Diagnostic, len(changed)),
	}
	for i, g := range prog.Globals {
		c.initGlobal(p.Globals[i], g)
	}
	return c
}

// NumProcs returns the number of procedures to check.
func (c *Checker) NumProcs() int { return len(c.todo) }

// CheckProc checks the k-th procedure to check. Safe to call
// concurrently for distinct k: it reads only the prologue's tables and
// writes only that procedure and its diagnostic slot.
func (c *Checker) CheckProc(k int) {
	i := c.todo[k]
	errs := source.ErrorList{File: c.errs.File}
	pc := &procChecker{errs: &errs, p: c.p}
	pc.checkProc(c.p.Procs[i])
	c.diags[k] = errs.Diags
}

// Finish checks main and returns the checked program, or every
// diagnostic found: the prologue's, then each procedure's in procedure
// order, then main's.
func (c *Checker) Finish() (*Program, error) {
	var procDiags []source.Diagnostic
	for _, d := range c.diags {
		procDiags = append(procDiags, d...)
	}
	c.errs.Diags = append(c.errs.Diags, procDiags...)
	if main, ok := c.p.ProcByName["main"]; !ok {
		c.errs.Errorf(c.p.AST.NamePos, "program has no procedure named 'main'")
	} else {
		c.p.Main = main
		if len(main.Params) != 0 {
			c.errs.Errorf(main.Decl.KwPos, "'main' must not declare parameters")
		}
		if main.IsFunc {
			c.errs.Errorf(main.Decl.KwPos, "'main' must be a proc, not a func")
		}
	}
	if err := c.errs.Err(); err != nil {
		return nil, err
	}
	return c.p, nil
}

// Rebind points every procedure's callee references at p's procedure
// of the same index, after a Patch replaced some procedures: an
// unchanged procedure carried over from the previous version still
// names the replaced procedures there. Call it only once the new
// version is committed, since it changes procedures the previous
// version shares.
func (p *Program) Rebind() {
	for _, q := range p.Procs {
		for call, callee := range q.Callees {
			if cur := p.Procs[callee.Index]; cur != callee {
				q.Callees[call] = cur
			}
		}
	}
}

func (c *Checker) errorf(pos source.Pos, format string, args ...any) {
	c.errs.Errorf(pos, format, args...)
}

// procChecker is the state of one procedure's check.
type procChecker struct {
	errs      *source.ErrorList
	p         *Program
	proc      *Proc
	scope     map[string]*Var
	loopDepth int
}

func (c *procChecker) errorf(pos source.Pos, format string, args ...any) {
	c.errs.Errorf(pos, format, args...)
}

func (c *Checker) collectGlobals(prog *ast.Program) {
	for _, g := range prog.Globals {
		if prev, ok := c.p.globalByName[g.Name]; ok {
			c.errorf(g.KwPos, "global %q redeclared (previous declaration at %v)", g.Name, prev.Pos)
			continue
		}
		v := &Var{Name: g.Name, Kind: KindGlobal, Type: g.Type, Index: len(c.p.Globals), Pos: g.KwPos}
		c.p.globalByName[g.Name] = v
		c.p.Globals = append(c.p.Globals, v)
		c.initGlobal(v, g)
	}
}

// initGlobal checks g's initializer, if it has one, and records its
// value as v's initial value.
func (c *Checker) initGlobal(v *Var, g *ast.GlobalDecl) {
	if g.Init == nil {
		return
	}
	if cv, ok := c.evalInitLit(g.Init); ok {
		if cv.Type != g.Type {
			c.errorf(g.Init.Pos(), "initialiser type %s does not match global %q of type %s", cv.Type, g.Name, g.Type)
		} else {
			c.p.GlobalInit[v] = cv
		}
	}
}

func (c *Checker) evalInitLit(e ast.Expr) (val.Value, bool) {
	switch e := e.(type) {
	case *ast.IntLit:
		return val.Int(e.Value), true
	case *ast.RealLit:
		return val.Real(e.Value), true
	case *ast.BoolLit:
		return val.Bool(e.Value), true
	case *ast.UnaryExpr:
		if x, ok := c.evalInitLit(e.X); ok {
			if v, ok := val.Unary(e.Op, x); ok {
				return v, true
			}
			c.errorf(e.OpPos, "invalid operator %s in global initialiser", e.Op)
		}
		return val.Value{}, false
	}
	c.errorf(e.Pos(), "global initialiser must be a literal")
	return val.Value{}, false
}

func (c *Checker) collectProcs(prog *ast.Program) {
	for _, pd := range prog.Procs {
		if prev, ok := c.p.ProcByName[pd.Name]; ok {
			c.errorf(pd.KwPos, "procedure %q redeclared (previous declaration at %v)", pd.Name, prev.Decl.KwPos)
			// keep parallel indexing with prog.Procs
		}
		p := declareProc(pd, len(c.p.Procs))
		if _, dup := c.p.ProcByName[pd.Name]; !dup {
			c.p.ProcByName[pd.Name] = p
		}
		c.p.Procs = append(c.p.Procs, p)
	}
}

// declareProc declares the procedure pd at index i from its header.
func declareProc(pd *ast.ProcDecl, i int) *Proc {
	p := &Proc{
		Name:    pd.Name,
		Index:   i,
		IsFunc:  pd.IsFunc,
		Result:  pd.Result,
		Decl:    pd,
		UsesSet: make(map[*Var]bool),
	}
	for i, par := range pd.Params {
		v := &Var{Name: par.Name, Kind: KindFormal, Type: par.Type, Index: i, Owner: p, Pos: par.NamePos}
		p.Params = append(p.Params, v)
	}
	return p
}

func (c *procChecker) checkProc(p *Proc) {
	pd := p.Decl
	c.proc = p
	c.scope = make(map[string]*Var)
	p.Refs = make(map[*ast.Ident]*Var)
	p.Callees = make(map[*ast.CallExpr]*Proc)
	p.Types = make(map[ast.Expr]ast.Type)
	for _, v := range p.Params {
		if prev, ok := c.scope[v.Name]; ok {
			c.errorf(v.Pos, "parameter %q redeclared (previous at %v)", v.Name, prev.Pos)
			continue
		}
		c.scope[v.Name] = v
	}
	for _, u := range pd.Uses {
		g, ok := c.p.globalByName[u.Name]
		if !ok {
			c.errorf(u.NamePos, "use of undeclared global %q", u.Name)
			continue
		}
		if p.UsesSet[g] {
			c.errorf(u.NamePos, "global %q listed twice in use clause", u.Name)
			continue
		}
		if prev, ok := c.scope[u.Name]; ok {
			c.errorf(u.NamePos, "global %q conflicts with %s %q declared at %v", u.Name, prev.Kind, prev.Name, prev.Pos)
			continue
		}
		c.scope[u.Name] = g
		p.Uses = append(p.Uses, g)
		p.UsesSet[g] = true
		p.Refs[u] = g
	}
	c.checkBlock(pd.Body)
}

func (c *procChecker) checkBlock(b *ast.Block) {
	for _, s := range b.Stmts {
		c.checkStmt(s)
	}
}

func (c *procChecker) checkStmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.VarDecl:
		if prev, ok := c.scope[s.Name]; ok {
			c.errorf(s.KwPos, "%q redeclared (previous %s at %v)", s.Name, prev.Kind, prev.Pos)
			if s.Init != nil {
				c.checkExpr(s.Init)
			}
			return
		}
		v := &Var{Name: s.Name, Kind: KindLocal, Type: s.Type, Owner: c.proc, Pos: s.KwPos}
		c.scope[s.Name] = v
		c.proc.Locals = append(c.proc.Locals, v)
		if s.Init != nil {
			t := c.checkExpr(s.Init)
			if t != ast.TypeInvalid && t != s.Type {
				c.errorf(s.Init.Pos(), "cannot initialise %s variable %q with %s value", s.Type, s.Name, t)
			}
		}
	case *ast.AssignStmt:
		v := c.resolve(s.Name)
		t := c.checkExpr(s.Value)
		if v != nil && t != ast.TypeInvalid && t != v.Type {
			c.errorf(s.Value.Pos(), "cannot assign %s value to %s variable %q", t, v.Type, v.Name)
		}
	case *ast.IfStmt:
		c.checkCond(s.Cond)
		c.checkBlock(s.Then)
		if s.Else != nil {
			c.checkStmt(s.Else)
		}
	case *ast.Block:
		c.checkBlock(s)
	case *ast.WhileStmt:
		c.checkCond(s.Cond)
		c.loopDepth++
		c.checkBlock(s.Body)
		c.loopDepth--
	case *ast.ForStmt:
		v := c.resolve(s.Var)
		if v != nil && v.Type != ast.TypeInt {
			c.errorf(s.Var.NamePos, "for-loop variable %q must be int, not %s", v.Name, v.Type)
		}
		for _, e := range []ast.Expr{s.Lo, s.Hi, s.Step} {
			if e == nil {
				continue
			}
			if t := c.checkExpr(e); t != ast.TypeInvalid && t != ast.TypeInt {
				c.errorf(e.Pos(), "for-loop bound must be int, not %s", t)
			}
		}
		c.loopDepth++
		c.checkBlock(s.Body)
		c.loopDepth--
	case *ast.CallStmt:
		c.checkCall(s.Call, true)
	case *ast.ReturnStmt:
		if c.proc.IsFunc {
			if s.Value == nil {
				c.errorf(s.KwPos, "func %q must return a value", c.proc.Name)
			} else if t := c.checkExpr(s.Value); t != ast.TypeInvalid && t != c.proc.Result {
				c.errorf(s.Value.Pos(), "func %q returns %s, cannot return %s", c.proc.Name, c.proc.Result, t)
			}
		} else if s.Value != nil {
			c.errorf(s.Value.Pos(), "proc %q cannot return a value", c.proc.Name)
			c.checkExpr(s.Value)
		}
	case *ast.ReadStmt:
		c.resolve(s.Name)
	case *ast.PrintStmt:
		for _, a := range s.Args {
			c.checkExpr(a)
		}
	case *ast.BreakStmt:
		if c.loopDepth == 0 {
			c.errorf(s.KwPos, "break outside loop")
		}
	case *ast.ContinueStmt:
		if c.loopDepth == 0 {
			c.errorf(s.KwPos, "continue outside loop")
		}
	}
}

func (c *procChecker) checkCond(e ast.Expr) {
	if t := c.checkExpr(e); t != ast.TypeInvalid && t != ast.TypeBool {
		c.errorf(e.Pos(), "condition must be bool, not %s", t)
	}
}

// resolve looks up a variable reference; reports and returns nil if
// undeclared.
func (c *procChecker) resolve(id *ast.Ident) *Var {
	if v, ok := c.scope[id.Name]; ok {
		c.proc.Refs[id] = v
		return v
	}
	if _, isGlobal := c.p.globalByName[id.Name]; isGlobal {
		c.errorf(id.NamePos, "global %q is not visible here: add it to the procedure's use clause", id.Name)
	} else {
		c.errorf(id.NamePos, "undeclared variable %q", id.Name)
	}
	return nil
}

func (c *procChecker) checkCall(call *ast.CallExpr, stmt bool) ast.Type {
	callee, ok := c.p.ProcByName[call.Fun.Name]
	if !ok {
		c.errorf(call.Fun.NamePos, "call of undeclared procedure %q", call.Fun.Name)
		for _, a := range call.Args {
			c.checkExpr(a)
		}
		return ast.TypeInvalid
	}
	c.proc.Callees[call] = callee
	if !stmt && !callee.IsFunc {
		c.errorf(call.Fun.NamePos, "proc %q has no result and cannot appear in an expression", callee.Name)
	}
	if len(call.Args) != len(callee.Params) {
		c.errorf(call.Rp, "call of %q with %d argument(s), want %d", callee.Name, len(call.Args), len(callee.Params))
	}
	for i, a := range call.Args {
		t := c.checkExpr(a)
		if i < len(callee.Params) && t != ast.TypeInvalid && t != callee.Params[i].Type {
			c.errorf(a.Pos(), "argument %d of %q has type %s, want %s", i+1, callee.Name, t, callee.Params[i].Type)
		}
	}
	if callee.IsFunc {
		return callee.Result
	}
	return ast.TypeInvalid
}

// checkExpr types an expression, recording the result in Proc.Types.
func (c *procChecker) checkExpr(e ast.Expr) ast.Type {
	t := c.typeOf(e)
	c.proc.Types[e] = t
	return t
}

func (c *procChecker) typeOf(e ast.Expr) ast.Type {
	switch e := e.(type) {
	case *ast.Ident:
		if v := c.resolve(e); v != nil {
			return v.Type
		}
		return ast.TypeInvalid
	case *ast.IntLit:
		return ast.TypeInt
	case *ast.RealLit:
		return ast.TypeReal
	case *ast.BoolLit:
		return ast.TypeBool
	case *ast.StringLit:
		return ast.TypeInvalid // only legal in print; callers don't compare
	case *ast.UnaryExpr:
		xt := c.checkExpr(e.X)
		if xt == ast.TypeInvalid {
			return ast.TypeInvalid
		}
		rt, ok := val.UnaryResultType(e.Op, xt)
		if !ok {
			c.errorf(e.OpPos, "invalid operand type %s for unary %s", xt, e.Op)
			return ast.TypeInvalid
		}
		return rt
	case *ast.BinaryExpr:
		xt := c.checkExpr(e.X)
		yt := c.checkExpr(e.Y)
		if xt == ast.TypeInvalid || yt == ast.TypeInvalid {
			return ast.TypeInvalid
		}
		if xt != yt {
			c.errorf(e.Y.Pos(), "mismatched operand types %s and %s for %s", xt, yt, e.Op)
			return ast.TypeInvalid
		}
		rt, ok := val.ResultType(e.Op, xt)
		if !ok {
			c.errorf(e.X.Pos(), "invalid operand type %s for %s", xt, e.Op)
			return ast.TypeInvalid
		}
		return rt
	case *ast.CallExpr:
		return c.checkCall(e, false)
	case *ast.ParenExpr:
		return c.checkExpr(e.X)
	}
	return ast.TypeInvalid
}

// FoldNegatedLiteral folds the restricted unary-minus initialiser shapes
// used by globals; exported for reuse by tools that need init values
// without a checker.
func FoldNegatedLiteral(e ast.Expr) (val.Value, bool) {
	switch e := e.(type) {
	case *ast.IntLit:
		return val.Int(e.Value), true
	case *ast.RealLit:
		return val.Real(e.Value), true
	case *ast.BoolLit:
		return val.Bool(e.Value), true
	case *ast.UnaryExpr:
		if x, ok := FoldNegatedLiteral(e.X); ok {
			return val.Unary(e.Op, x)
		}
	}
	return val.Value{}, false
}
