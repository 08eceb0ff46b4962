// Package ast defines the abstract syntax tree for MiniFort.
//
// A MiniFort compilation unit is a single whole program: a program header,
// a list of global variable declarations (optionally initialised, which
// models Fortran BLOCK DATA), and a list of procedures. Procedures declare
// by-reference formal parameters, an optional result type (making them
// functions), a `use` clause listing the globals visible inside the body
// (modelling COMMON visibility), local variables, and structured
// statements.
package ast

import (
	"fsicp/internal/source"
	"fsicp/internal/token"
)

// Node is implemented by all AST nodes.
type Node interface {
	Pos() source.Pos
}

// Type is the syntactic type of a variable: int, real, or bool.
type Type int

const (
	TypeInvalid Type = iota
	TypeInt
	TypeReal
	TypeBool
)

func (t Type) String() string {
	switch t {
	case TypeInt:
		return "int"
	case TypeReal:
		return "real"
	case TypeBool:
		return "bool"
	}
	return "invalid"
}

// Program is a whole MiniFort program, or — when IsModule is set — one
// module of a multi-file corpus awaiting a MergeUnits into the root
// program's namespace.
type Program struct {
	NamePos  source.Pos
	Name     string
	Globals  []*GlobalDecl
	Procs    []*ProcDecl
	IsModule bool
}

func (p *Program) Pos() source.Pos { return p.NamePos }

// MergeUnits combines parsed units (one program plus any number of
// modules) into a single Program. Globals and procedures keep unit
// order, then declaration order, so the merge is deterministic
// regardless of how the units were parsed. The merged program takes its
// name from the first non-module unit; validating that exactly one such
// unit exists is the caller's job. Nil units (failed parses) are
// skipped.
func MergeUnits(units []*Program) *Program {
	merged := &Program{}
	nglobals, nprocs := 0, 0
	for _, u := range units {
		if u == nil {
			continue
		}
		nglobals += len(u.Globals)
		nprocs += len(u.Procs)
	}
	merged.Globals = make([]*GlobalDecl, 0, nglobals)
	merged.Procs = make([]*ProcDecl, 0, nprocs)
	for _, u := range units {
		if u == nil {
			continue
		}
		if !u.IsModule && merged.Name == "" {
			merged.Name, merged.NamePos = u.Name, u.NamePos
		}
		merged.Globals = append(merged.Globals, u.Globals...)
		merged.Procs = append(merged.Procs, u.Procs...)
	}
	return merged
}

// GlobalDecl declares one program-wide variable, optionally initialised
// with a literal (the BLOCK DATA analogue).
type GlobalDecl struct {
	KwPos source.Pos
	Name  string
	Type  Type
	Init  Expr // nil, or a literal expression (possibly negated)
}

func (g *GlobalDecl) Pos() source.Pos { return g.KwPos }

// Param is one by-reference formal parameter.
type Param struct {
	NamePos source.Pos
	Name    string
	Type    Type
}

func (p *Param) Pos() source.Pos { return p.NamePos }

// ProcDecl declares one procedure (Result == TypeInvalid) or function.
type ProcDecl struct {
	KwPos   source.Pos
	Name    string
	Params  []*Param
	Result  Type     // TypeInvalid for subroutines
	Uses    []*Ident // globals visible in the body
	Body    *Block
	IsFunc  bool
	NamePos source.Pos
}

func (p *ProcDecl) Pos() source.Pos { return p.KwPos }

// Block is a brace-delimited statement list.
type Block struct {
	LbracePos source.Pos
	Stmts     []Stmt
}

func (b *Block) Pos() source.Pos { return b.LbracePos }

// Stmt is implemented by all statement nodes.
type Stmt interface {
	Node
	stmtNode()
}

// VarDecl declares a local variable with an optional initialiser.
type VarDecl struct {
	KwPos source.Pos
	Name  string
	Type  Type
	Init  Expr // may be nil
}

// AssignStmt assigns Value to the named variable.
type AssignStmt struct {
	Name  *Ident
	Value Expr
}

// IfStmt is if/else; Else may be nil, a *Block, or another *IfStmt
// (else-if chain).
type IfStmt struct {
	KwPos source.Pos
	Cond  Expr
	Then  *Block
	Else  Stmt
}

// WhileStmt loops while Cond holds.
type WhileStmt struct {
	KwPos source.Pos
	Cond  Expr
	Body  *Block
}

// ForStmt is a Fortran-DO-style counted loop:
// for i = Lo, Hi [, Step] { ... }.
type ForStmt struct {
	KwPos source.Pos
	Var   *Ident
	Lo    Expr
	Hi    Expr
	Step  Expr // nil means 1
	Body  *Block
}

// CallStmt invokes a subroutine: call p(args).
type CallStmt struct {
	KwPos source.Pos
	Call  *CallExpr
}

// ReturnStmt returns from the procedure, with a value iff it is a
// function.
type ReturnStmt struct {
	KwPos source.Pos
	Value Expr // nil in subroutines
}

// ReadStmt assigns an externally supplied (non-constant) value.
type ReadStmt struct {
	KwPos source.Pos
	Name  *Ident
}

// PrintStmt writes expression values to program output.
type PrintStmt struct {
	KwPos source.Pos
	Args  []Expr
}

// BreakStmt exits the innermost loop.
type BreakStmt struct{ KwPos source.Pos }

// ContinueStmt continues the innermost loop.
type ContinueStmt struct{ KwPos source.Pos }

func (s *VarDecl) Pos() source.Pos      { return s.KwPos }
func (s *AssignStmt) Pos() source.Pos   { return s.Name.Pos() }
func (s *IfStmt) Pos() source.Pos       { return s.KwPos }
func (s *WhileStmt) Pos() source.Pos    { return s.KwPos }
func (s *ForStmt) Pos() source.Pos      { return s.KwPos }
func (s *CallStmt) Pos() source.Pos     { return s.KwPos }
func (s *ReturnStmt) Pos() source.Pos   { return s.KwPos }
func (s *ReadStmt) Pos() source.Pos     { return s.KwPos }
func (s *PrintStmt) Pos() source.Pos    { return s.KwPos }
func (s *BreakStmt) Pos() source.Pos    { return s.KwPos }
func (s *ContinueStmt) Pos() source.Pos { return s.KwPos }

func (*Block) stmtNode()        {}
func (*VarDecl) stmtNode()      {}
func (*AssignStmt) stmtNode()   {}
func (*IfStmt) stmtNode()       {}
func (*WhileStmt) stmtNode()    {}
func (*ForStmt) stmtNode()      {}
func (*CallStmt) stmtNode()     {}
func (*ReturnStmt) stmtNode()   {}
func (*ReadStmt) stmtNode()     {}
func (*PrintStmt) stmtNode()    {}
func (*BreakStmt) stmtNode()    {}
func (*ContinueStmt) stmtNode() {}

// Expr is implemented by all expression nodes.
type Expr interface {
	Node
	exprNode()
}

// Ident names a variable (local, formal, or visible global) or, in call
// position, a procedure.
type Ident struct {
	NamePos source.Pos
	Name    string
}

// IntLit is an integer literal.
type IntLit struct {
	LitPos source.Pos
	Value  int64
	Text   string
}

// RealLit is a floating-point literal.
type RealLit struct {
	LitPos source.Pos
	Value  float64
	Text   string
}

// BoolLit is true or false.
type BoolLit struct {
	LitPos source.Pos
	Value  bool
}

// StringLit is a string literal; only legal as a print argument.
type StringLit struct {
	LitPos source.Pos
	Value  string
}

// UnaryExpr applies - or ! to an operand.
type UnaryExpr struct {
	OpPos source.Pos
	Op    token.Kind
	X     Expr
}

// BinaryExpr applies a binary operator.
type BinaryExpr struct {
	Op   token.Kind
	X, Y Expr
}

// CallExpr invokes a function (in expressions) or subroutine (under
// CallStmt).
type CallExpr struct {
	Fun  *Ident
	Args []Expr
	Rp   source.Pos
}

// ParenExpr is a parenthesised expression, retained for printing.
type ParenExpr struct {
	Lp source.Pos
	X  Expr
}

func (e *Ident) Pos() source.Pos      { return e.NamePos }
func (e *IntLit) Pos() source.Pos     { return e.LitPos }
func (e *RealLit) Pos() source.Pos    { return e.LitPos }
func (e *BoolLit) Pos() source.Pos    { return e.LitPos }
func (e *StringLit) Pos() source.Pos  { return e.LitPos }
func (e *UnaryExpr) Pos() source.Pos  { return e.OpPos }
func (e *BinaryExpr) Pos() source.Pos { return e.X.Pos() }
func (e *CallExpr) Pos() source.Pos   { return e.Fun.Pos() }
func (e *ParenExpr) Pos() source.Pos  { return e.Lp }

func (*Ident) exprNode()      {}
func (*IntLit) exprNode()     {}
func (*RealLit) exprNode()    {}
func (*BoolLit) exprNode()    {}
func (*StringLit) exprNode()  {}
func (*UnaryExpr) exprNode()  {}
func (*BinaryExpr) exprNode() {}
func (*CallExpr) exprNode()   {}
func (*ParenExpr) exprNode()  {}
