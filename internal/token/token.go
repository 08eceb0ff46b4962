// Package token defines the lexical tokens of MiniFort, the small
// Fortran-flavoured imperative language analysed by this repository.
package token

import "strconv"

// Kind identifies a lexical token class.
type Kind int

const (
	ILLEGAL Kind = iota
	EOF
	COMMENT

	literalBeg
	IDENT     // x
	INTLIT    // 42
	REALLIT   // 3.14
	STRINGLIT // "hello"
	literalEnd

	operatorBeg
	ADD // +
	SUB // -
	MUL // *
	QUO // /
	REM // %

	EQL // ==
	NEQ // !=
	LSS // <
	LEQ // <=
	GTR // >
	GEQ // >=

	LAND // &&
	LOR  // ||
	NOT  // !

	ASSIGN // =

	LPAREN    // (
	RPAREN    // )
	LBRACE    // {
	RBRACE    // }
	COMMA     // ,
	SEMICOLON // ;
	operatorEnd

	keywordBeg
	PROGRAM  // program
	MODULE   // module
	PROC     // proc
	FUNC     // func
	GLOBAL   // global
	USE      // use
	VAR      // var
	IF       // if
	ELSE     // else
	WHILE    // while
	FOR      // for
	CALL     // call
	RETURN   // return
	READ     // read
	PRINT    // print
	TRUE     // true
	FALSE    // false
	INT      // int
	REAL     // real
	BOOL     // bool
	BREAK    // break
	CONTINUE // continue
	keywordEnd
)

var names = map[Kind]string{
	ILLEGAL:   "ILLEGAL",
	EOF:       "EOF",
	COMMENT:   "COMMENT",
	IDENT:     "IDENT",
	INTLIT:    "INTLIT",
	REALLIT:   "REALLIT",
	STRINGLIT: "STRINGLIT",
	ADD:       "+",
	SUB:       "-",
	MUL:       "*",
	QUO:       "/",
	REM:       "%",
	EQL:       "==",
	NEQ:       "!=",
	LSS:       "<",
	LEQ:       "<=",
	GTR:       ">",
	GEQ:       ">=",
	LAND:      "&&",
	LOR:       "||",
	NOT:       "!",
	ASSIGN:    "=",
	LPAREN:    "(",
	RPAREN:    ")",
	LBRACE:    "{",
	RBRACE:    "}",
	COMMA:     ",",
	SEMICOLON: ";",
	PROGRAM:   "program",
	MODULE:    "module",
	PROC:      "proc",
	FUNC:      "func",
	GLOBAL:    "global",
	USE:       "use",
	VAR:       "var",
	IF:        "if",
	ELSE:      "else",
	WHILE:     "while",
	FOR:       "for",
	CALL:      "call",
	RETURN:    "return",
	READ:      "read",
	PRINT:     "print",
	TRUE:      "true",
	FALSE:     "false",
	INT:       "int",
	REAL:      "real",
	BOOL:      "bool",
	BREAK:     "break",
	CONTINUE:  "continue",
}

// String returns the token name or operator spelling.
func (k Kind) String() string {
	if s, ok := names[k]; ok {
		return s
	}
	return "Kind(" + strconv.Itoa(int(k)) + ")"
}

// IsLiteral reports whether the kind is an identifier or literal.
func (k Kind) IsLiteral() bool { return literalBeg < k && k < literalEnd }

// IsOperator reports whether the kind is an operator or delimiter.
func (k Kind) IsOperator() bool { return operatorBeg < k && k < operatorEnd }

// IsKeyword reports whether the kind is a keyword.
func (k Kind) IsKeyword() bool { return keywordBeg < k && k < keywordEnd }

// keywords is a 64-slot table of the keywords, placed by kwSlot. No
// two keywords share a slot (init checks it), so a spelling is a
// keyword iff it equals the one keyword in its slot: Lookup costs a
// slot computation and one string compare instead of a map probe.
var keywords [64]struct {
	spelling string
	kind     Kind
}

// kwSlot places a spelling of at least one byte by its first and last
// bytes and its length.
func kwSlot(s string) int {
	return int(uint(s[0])*5+uint(s[len(s)-1])*25+uint(len(s))) & 63
}

func init() {
	for k := keywordBeg + 1; k < keywordEnd; k++ {
		e := &keywords[kwSlot(names[k])]
		if e.spelling != "" {
			panic("token: keywords " + e.spelling + " and " + names[k] + " share a slot")
		}
		e.spelling, e.kind = names[k], k
	}
}

// Lookup maps an identifier spelling to its keyword kind, or IDENT.
func Lookup(ident string) Kind {
	if ident == "" {
		return IDENT
	}
	if e := &keywords[kwSlot(ident)]; e.spelling == ident {
		return e.kind
	}
	return IDENT
}

// Precedence levels for binary operators; higher binds tighter.
// Returns 0 for non-binary-operator kinds.
func (k Kind) Precedence() int {
	switch k {
	case LOR:
		return 1
	case LAND:
		return 2
	case EQL, NEQ, LSS, LEQ, GTR, GEQ:
		return 3
	case ADD, SUB:
		return 4
	case MUL, QUO, REM:
		return 5
	}
	return 0
}
