// Package parser implements a recursive-descent parser for MiniFort.
//
// Grammar (EBNF):
//
//	program   = "program" IDENT { global } { proc } .
//	unit      = ("program" | "module") IDENT { global } { proc } .
//	global    = "global" IDENT type [ "=" initlit ] .
//	initlit   = [ "-" ] (INTLIT | REALLIT) | "true" | "false" .
//	proc      = ("proc" | "func") IDENT "(" [ params ] ")" [ type ] block .
//	params    = param { "," param } .
//	param     = IDENT type .
//	type      = "int" | "real" | "bool" .
//	block     = "{" [ "use" IDENT {"," IDENT} ] { stmt } "}" .
//	stmt      = vardecl | assign | if | while | for | call | return
//	          | read | print | break | continue .
//	vardecl   = "var" IDENT type [ "=" expr ] .
//	assign    = IDENT "=" expr .
//	if        = "if" expr block [ "else" (block | if) ] .
//	while     = "while" expr block .
//	for       = "for" IDENT "=" expr "," expr [ "," expr ] block .
//	call      = "call" IDENT "(" [ args ] ")" .
//	return    = "return" [ expr ] .
//	read      = "read" IDENT .
//	print     = "print" expr { "," expr } .
//	expr      = binary expression over unary, with Go-like precedence .
//	primary   = literal | IDENT [ "(" args ")" ] | "(" expr ")" | unary .
//
// Newlines are insignificant; statements are recognised by their leading
// keyword or by IDENT "=".
package parser

import (
	"strconv"

	"fsicp/internal/ast"
	"fsicp/internal/lexer"
	"fsicp/internal/source"
	"fsicp/internal/token"
)

// Parser parses one file into an *ast.Program.
type Parser struct {
	file  *source.File
	lex   *lexer.Lexer
	errs  *source.ErrorList
	tok   lexer.Token // current token
	next  lexer.Token // one token of lookahead
	depth int         // expression/statement nesting depth
}

// maxDepth bounds recursive-descent nesting so hostile inputs (for
// example ten thousand opening parentheses) produce a diagnostic
// instead of exhausting the goroutine stack.
const maxDepth = 256

// Parse parses source text. On any syntax error the returned error is a
// *source.ErrorList; the Program may be partially populated.
func Parse(filename, src string) (*ast.Program, error) {
	f := source.NewFile(filename, src)
	return ParseFile(f)
}

// ParseFile parses an existing source.File.
func ParseFile(f *source.File) (*ast.Program, error) {
	errs := &source.ErrorList{File: f}
	p := &Parser{file: f, lex: lexer.New(f, errs), errs: errs}
	p.tok = p.lex.Next()
	p.next = p.lex.Next()
	prog := p.parseProgram()
	return prog, errs.Err()
}

// ParseUnit parses one file of a multi-file corpus. A unit opens with
// either a "program" header (the corpus root — exactly one per corpus)
// or a "module" header (any number); the grammar is otherwise identical.
// Diagnostics are resolved through the supplied resolver so positions
// report the right file when f belongs to a FileSet; pass f itself for
// standalone parses.
func ParseUnit(f *source.File, resolver source.PosResolver) (*ast.Program, error) {
	if resolver == nil {
		resolver = f
	}
	errs := &source.ErrorList{File: resolver}
	p := &Parser{file: f, lex: lexer.New(f, errs), errs: errs}
	p.tok = p.lex.Next()
	p.next = p.lex.Next()
	prog := p.parseUnit()
	return prog, errs.Err()
}

// ParseProc parses the one procedure declaration that starts at byte
// offset off of f, with the code ParseUnit runs for each declaration,
// and returns it with the offset of the first token after it (the
// source length at the end of the file). Positions and diagnostics are
// those a parse of the whole file reports, resolved through resolver
// as in ParseUnit.
func ParseProc(f *source.File, resolver source.PosResolver, off int) (*ast.ProcDecl, int, error) {
	if resolver == nil {
		resolver = f
	}
	errs := &source.ErrorList{File: resolver}
	p := &Parser{file: f, lex: lexer.NewAt(f, errs, off), errs: errs}
	p.tok = p.lex.Next()
	p.next = p.lex.Next()
	if p.tok.Kind != token.PROC && p.tok.Kind != token.FUNC {
		p.errorf("expected 'proc' or 'func', found %s", p.describe(p.tok))
		return nil, off, errs.Err()
	}
	d := p.parseProc()
	return d, f.Offset(p.tok.Pos), errs.Err()
}

// ParseGlobals parses the global declarations that start at byte
// offset off of f, with the code ParseUnit runs for a unit's, and
// returns them with the offset of the first token after them (the
// source length at the end of the file). Positions and diagnostics are
// resolved as in ParseProc.
func ParseGlobals(f *source.File, resolver source.PosResolver, off int) ([]*ast.GlobalDecl, int, error) {
	if resolver == nil {
		resolver = f
	}
	errs := &source.ErrorList{File: resolver}
	p := &Parser{file: f, lex: lexer.NewAt(f, errs, off), errs: errs}
	p.tok = p.lex.Next()
	p.next = p.lex.Next()
	gs := p.parseGlobals()
	return gs, f.Offset(p.tok.Pos), errs.Err()
}

func (p *Parser) advance() {
	p.tok = p.next
	p.next = p.lex.Next()
}

func (p *Parser) got(k token.Kind) bool {
	if p.tok.Kind == k {
		p.advance()
		return true
	}
	return false
}

func (p *Parser) expect(k token.Kind) lexer.Token {
	t := p.tok
	if t.Kind != k {
		p.errorf("expected %s, found %s", k, p.describe(t))
		// Do not consume: let the caller's recovery logic run.
		return lexer.Token{Kind: k, Pos: t.Pos}
	}
	p.advance()
	return t
}

func (p *Parser) describe(t lexer.Token) string {
	switch t.Kind {
	case token.IDENT, token.INTLIT, token.REALLIT:
		return "'" + t.Lit + "'"
	case token.EOF:
		return "end of file"
	default:
		return "'" + t.Kind.String() + "'"
	}
}

func (p *Parser) errorf(format string, args ...any) {
	p.errs.Errorf(p.tok.Pos, format, args...)
}

// sync skips tokens until a likely statement or declaration boundary.
func (p *Parser) sync() {
	for {
		switch p.tok.Kind {
		case token.EOF, token.RBRACE, token.PROC, token.FUNC, token.GLOBAL,
			token.VAR, token.IF, token.WHILE, token.FOR, token.CALL,
			token.RETURN, token.READ, token.PRINT, token.BREAK, token.CONTINUE:
			return
		}
		p.advance()
	}
}

func (p *Parser) parseProgram() *ast.Program {
	prog := &ast.Program{}
	p.expect(token.PROGRAM)
	return p.parseUnitBody(prog)
}

func (p *Parser) parseUnit() *ast.Program {
	prog := &ast.Program{}
	if p.tok.Kind == token.MODULE {
		prog.IsModule = true
		p.advance()
	} else {
		p.expect(token.PROGRAM)
	}
	return p.parseUnitBody(prog)
}

func (p *Parser) parseUnitBody(prog *ast.Program) *ast.Program {
	name := p.expect(token.IDENT)
	prog.NamePos = name.Pos
	prog.Name = name.Lit

	prog.Globals = p.parseGlobals()
	for p.tok.Kind != token.EOF {
		switch p.tok.Kind {
		case token.PROC, token.FUNC:
			if d := p.parseProc(); d != nil {
				prog.Procs = append(prog.Procs, d)
			}
		case token.GLOBAL:
			p.errorf("global declarations must precede all procedures")
			p.parseGlobal()
		default:
			p.errorf("expected 'proc' or 'func', found %s", p.describe(p.tok))
			p.advance()
			p.sync()
		}
	}
	return prog
}

// parseGlobals parses the global declarations that open a unit.
func (p *Parser) parseGlobals() []*ast.GlobalDecl {
	var gs []*ast.GlobalDecl
	for p.tok.Kind == token.GLOBAL {
		if g := p.parseGlobal(); g != nil {
			gs = append(gs, g)
		}
	}
	return gs
}

func (p *Parser) parseGlobal() *ast.GlobalDecl {
	kw := p.expect(token.GLOBAL)
	name := p.expect(token.IDENT)
	typ := p.parseType()
	g := &ast.GlobalDecl{KwPos: kw.Pos, Name: name.Lit, Type: typ}
	if p.got(token.ASSIGN) {
		g.Init = p.parseInitLit()
	}
	return g
}

// parseInitLit parses the restricted literal initialiser for globals.
func (p *Parser) parseInitLit() ast.Expr {
	neg := false
	opPos := p.tok.Pos
	if p.tok.Kind == token.SUB {
		neg = true
		p.advance()
	}
	var e ast.Expr
	switch p.tok.Kind {
	case token.INTLIT:
		e = p.parseIntLit()
	case token.REALLIT:
		e = p.parseRealLit()
	case token.TRUE, token.FALSE:
		if neg {
			p.errorf("cannot negate a bool literal")
		}
		e = &ast.BoolLit{LitPos: p.tok.Pos, Value: p.tok.Kind == token.TRUE}
		p.advance()
		return e
	default:
		p.errorf("global initialiser must be a literal, found %s", p.describe(p.tok))
		p.sync()
		return &ast.IntLit{LitPos: p.tok.Pos, Value: 0, Text: "0"}
	}
	if neg {
		return &ast.UnaryExpr{OpPos: opPos, Op: token.SUB, X: e}
	}
	return e
}

func (p *Parser) parseType() ast.Type {
	switch p.tok.Kind {
	case token.INT:
		p.advance()
		return ast.TypeInt
	case token.REAL:
		p.advance()
		return ast.TypeReal
	case token.BOOL:
		p.advance()
		return ast.TypeBool
	}
	p.errorf("expected type, found %s", p.describe(p.tok))
	return ast.TypeInvalid
}

func (p *Parser) parseProc() *ast.ProcDecl {
	kw := p.tok
	isFunc := kw.Kind == token.FUNC
	p.advance()
	name := p.expect(token.IDENT)
	d := &ast.ProcDecl{KwPos: kw.Pos, Name: name.Lit, NamePos: name.Pos, IsFunc: isFunc}
	p.expect(token.LPAREN)
	if p.tok.Kind != token.RPAREN {
		for {
			pn := p.expect(token.IDENT)
			pt := p.parseType()
			d.Params = append(d.Params, &ast.Param{NamePos: pn.Pos, Name: pn.Lit, Type: pt})
			if !p.got(token.COMMA) {
				break
			}
		}
	}
	p.expect(token.RPAREN)
	if isFunc {
		d.Result = p.parseType()
	} else if p.tok.Kind == token.INT || p.tok.Kind == token.REAL || p.tok.Kind == token.BOOL {
		p.errorf("subroutine %q cannot declare a result type; use 'func'", d.Name)
		p.parseType()
	}
	lb := p.expect(token.LBRACE)
	if p.got(token.USE) {
		for {
			u := p.expect(token.IDENT)
			d.Uses = append(d.Uses, &ast.Ident{NamePos: u.Pos, Name: u.Lit})
			if !p.got(token.COMMA) {
				break
			}
		}
	}
	d.Body = p.parseStmtsUntilRbrace(lb.Pos)
	return d
}

func (p *Parser) parseBlock() *ast.Block {
	lb := p.expect(token.LBRACE)
	return p.parseStmtsUntilRbrace(lb.Pos)
}

func (p *Parser) parseStmtsUntilRbrace(lb source.Pos) *ast.Block {
	b := &ast.Block{LbracePos: lb}
	for p.tok.Kind != token.RBRACE && p.tok.Kind != token.EOF {
		before := p.tok
		if s := p.parseStmt(); s != nil {
			b.Stmts = append(b.Stmts, s)
		}
		if p.tok == before { // no progress: skip and resync
			p.advance()
			p.sync()
		}
	}
	p.expect(token.RBRACE)
	return b
}

func (p *Parser) parseStmt() ast.Stmt {
	ok := p.enter()
	defer p.leave()
	if !ok {
		p.advance()
		return nil
	}
	switch p.tok.Kind {
	case token.VAR:
		return p.parseVarDecl()
	case token.IDENT:
		return p.parseAssign()
	case token.IF:
		return p.parseIf()
	case token.WHILE:
		kw := p.tok
		p.advance()
		cond := p.parseExpr()
		body := p.parseBlock()
		return &ast.WhileStmt{KwPos: kw.Pos, Cond: cond, Body: body}
	case token.FOR:
		return p.parseFor()
	case token.CALL:
		kw := p.tok
		p.advance()
		fun := p.expect(token.IDENT)
		call := p.parseCallArgs(&ast.Ident{NamePos: fun.Pos, Name: fun.Lit})
		return &ast.CallStmt{KwPos: kw.Pos, Call: call}
	case token.RETURN:
		kw := p.tok
		p.advance()
		s := &ast.ReturnStmt{KwPos: kw.Pos}
		if startsExpr(p.tok.Kind) {
			s.Value = p.parseExpr()
		}
		return s
	case token.READ:
		kw := p.tok
		p.advance()
		name := p.expect(token.IDENT)
		return &ast.ReadStmt{KwPos: kw.Pos, Name: &ast.Ident{NamePos: name.Pos, Name: name.Lit}}
	case token.PRINT:
		kw := p.tok
		p.advance()
		s := &ast.PrintStmt{KwPos: kw.Pos}
		s.Args = append(s.Args, p.parseExpr())
		for p.got(token.COMMA) {
			s.Args = append(s.Args, p.parseExpr())
		}
		return s
	case token.BREAK:
		kw := p.tok
		p.advance()
		return &ast.BreakStmt{KwPos: kw.Pos}
	case token.CONTINUE:
		kw := p.tok
		p.advance()
		return &ast.ContinueStmt{KwPos: kw.Pos}
	case token.SEMICOLON:
		p.advance()
		return nil
	}
	p.errorf("expected statement, found %s", p.describe(p.tok))
	return nil
}

func startsExpr(k token.Kind) bool {
	switch k {
	case token.IDENT, token.INTLIT, token.REALLIT, token.TRUE, token.FALSE,
		token.LPAREN, token.SUB, token.NOT, token.STRINGLIT:
		return true
	}
	return false
}

func (p *Parser) parseVarDecl() ast.Stmt {
	kw := p.expect(token.VAR)
	name := p.expect(token.IDENT)
	typ := p.parseType()
	d := &ast.VarDecl{KwPos: kw.Pos, Name: name.Lit, Type: typ}
	if p.got(token.ASSIGN) {
		d.Init = p.parseExpr()
	}
	return d
}

func (p *Parser) parseAssign() ast.Stmt {
	name := p.expect(token.IDENT)
	id := &ast.Ident{NamePos: name.Pos, Name: name.Lit}
	if p.tok.Kind == token.LPAREN {
		p.errorf("procedure call statements require the 'call' keyword")
		call := p.parseCallArgs(id)
		return &ast.CallStmt{KwPos: name.Pos, Call: call}
	}
	p.expect(token.ASSIGN)
	val := p.parseExpr()
	return &ast.AssignStmt{Name: id, Value: val}
}

func (p *Parser) parseIf() ast.Stmt {
	kw := p.expect(token.IF)
	cond := p.parseExpr()
	then := p.parseBlock()
	s := &ast.IfStmt{KwPos: kw.Pos, Cond: cond, Then: then}
	if p.got(token.ELSE) {
		if p.tok.Kind == token.IF {
			s.Else = p.parseIf()
		} else {
			s.Else = p.parseBlock()
		}
	}
	return s
}

func (p *Parser) parseFor() ast.Stmt {
	kw := p.expect(token.FOR)
	v := p.expect(token.IDENT)
	p.expect(token.ASSIGN)
	lo := p.parseExpr()
	p.expect(token.COMMA)
	hi := p.parseExpr()
	s := &ast.ForStmt{
		KwPos: kw.Pos,
		Var:   &ast.Ident{NamePos: v.Pos, Name: v.Lit},
		Lo:    lo,
		Hi:    hi,
	}
	if p.got(token.COMMA) {
		s.Step = p.parseExpr()
	}
	s.Body = p.parseBlock()
	return s
}

func (p *Parser) parseCallArgs(fun *ast.Ident) *ast.CallExpr {
	p.expect(token.LPAREN)
	call := &ast.CallExpr{Fun: fun}
	if p.tok.Kind != token.RPAREN {
		for {
			call.Args = append(call.Args, p.parseExpr())
			if !p.got(token.COMMA) {
				break
			}
		}
	}
	rp := p.expect(token.RPAREN)
	call.Rp = rp.Pos
	return call
}

// parseExpr parses a full expression (lowest precedence: ||).
func (p *Parser) parseExpr() ast.Expr { return p.parseBinary(1) }

// enter guards recursion depth, reporting false past maxDepth; every
// enter must be paired with a leave.
func (p *Parser) enter() bool {
	p.depth++
	if p.depth > maxDepth {
		if p.depth == maxDepth+1 { // report once
			p.errorf("expression or statement nesting exceeds %d levels", maxDepth)
		}
		return false
	}
	return true
}

// leave ends the nesting level the matching enter began.
func (p *Parser) leave() { p.depth-- }

func (p *Parser) parseBinary(minPrec int) ast.Expr {
	x := p.parseUnary()
	for {
		op := p.tok.Kind
		prec := op.Precedence()
		if prec < minPrec || prec == 0 {
			return x
		}
		p.advance()
		y := p.parseBinary(prec + 1)
		x = &ast.BinaryExpr{Op: op, X: x, Y: y}
	}
}

func (p *Parser) parseUnary() ast.Expr {
	ok := p.enter()
	defer p.leave()
	if !ok {
		p.advance()
		return &ast.IntLit{LitPos: p.tok.Pos, Value: 0, Text: "0"}
	}
	switch p.tok.Kind {
	case token.SUB, token.NOT:
		op := p.tok
		p.advance()
		x := p.parseUnary()
		return &ast.UnaryExpr{OpPos: op.Pos, Op: op.Kind, X: x}
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() ast.Expr {
	ok := p.enter()
	defer p.leave()
	if !ok {
		p.advance()
		return &ast.IntLit{LitPos: p.tok.Pos, Value: 0, Text: "0"}
	}
	switch p.tok.Kind {
	case token.IDENT:
		t := p.tok
		p.advance()
		id := &ast.Ident{NamePos: t.Pos, Name: t.Lit}
		if p.tok.Kind == token.LPAREN {
			return p.parseCallArgs(id)
		}
		return id
	case token.INTLIT:
		return p.parseIntLit()
	case token.REALLIT:
		return p.parseRealLit()
	case token.TRUE, token.FALSE:
		e := &ast.BoolLit{LitPos: p.tok.Pos, Value: p.tok.Kind == token.TRUE}
		p.advance()
		return e
	case token.STRINGLIT:
		e := &ast.StringLit{LitPos: p.tok.Pos, Value: p.tok.Lit}
		p.advance()
		return e
	case token.LPAREN:
		lp := p.tok
		p.advance()
		x := p.parseExpr()
		p.expect(token.RPAREN)
		return &ast.ParenExpr{Lp: lp.Pos, X: x}
	}
	p.errorf("expected expression, found %s", p.describe(p.tok))
	e := &ast.IntLit{LitPos: p.tok.Pos, Value: 0, Text: "0"}
	return e
}

func (p *Parser) parseIntLit() ast.Expr {
	t := p.expect(token.INTLIT)
	v, err := strconv.ParseInt(t.Lit, 10, 64)
	if err != nil {
		p.errs.Errorf(t.Pos, "invalid integer literal %q: %v", t.Lit, err)
	}
	return &ast.IntLit{LitPos: t.Pos, Value: v, Text: t.Lit}
}

func (p *Parser) parseRealLit() ast.Expr {
	t := p.expect(token.REALLIT)
	v, err := strconv.ParseFloat(t.Lit, 64)
	if err != nil {
		p.errs.Errorf(t.Pos, "invalid real literal %q: %v", t.Lit, err)
	}
	return &ast.RealLit{LitPos: t.Pos, Value: v, Text: t.Lit}
}
