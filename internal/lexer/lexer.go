// Package lexer implements a hand-written scanner for MiniFort source
// text. It produces token.Kind values with positions and literal
// spellings, reporting malformed input through a source.ErrorList.
package lexer

import (
	"strings"

	"fsicp/internal/source"
	"fsicp/internal/token"
)

// Token is one scanned token.
type Token struct {
	Kind token.Kind
	Pos  source.Pos
	Lit  string // spelling for IDENT, INTLIT, REALLIT, STRINGLIT, COMMENT
}

// Lexer scans a File.
type Lexer struct {
	file   *source.File
	src    string
	offset int
	errs   *source.ErrorList
	lits   map[string]string // interned literal spellings; nil in a sweep
}

// New returns a Lexer over f, appending diagnostics to errs.
func New(f *source.File, errs *source.ErrorList) *Lexer {
	return NewAt(f, errs, 0)
}

// NewAt returns a Lexer over f that starts scanning at byte offset off,
// which must be the offset of a token (or of whitespace or a comment
// before one).
func NewAt(f *source.File, errs *source.ErrorList, off int) *Lexer {
	return &Lexer{file: f, src: f.Content, offset: off, errs: errs, lits: make(map[string]string)}
}

// NewSweep returns a Lexer over f for a sweep that reads each token
// once and keeps none, such as a fingerprint: its spellings alias the
// source text instead of being interned copies.
func NewSweep(f *source.File, errs *source.ErrorList) *Lexer {
	return &Lexer{file: f, src: f.Content, errs: errs}
}

// intern returns a copy of lit that does not alias the source text,
// deduplicated per lexer. Token.Lit values outlive the scan (they end
// up in AST nodes), and a naive substring would pin the whole file's
// backing array — defeating File.ReleaseContent in the streaming
// loader. Interning pays one small allocation per distinct spelling
// and lets the file contents be reclaimed the moment parsing is done.
func (l *Lexer) intern(lit string) string {
	if l.lits == nil {
		return lit
	}
	if s, ok := l.lits[lit]; ok {
		return s
	}
	s := strings.Clone(lit)
	l.lits[s] = s
	return s
}

func (l *Lexer) pos() source.Pos { return l.file.Pos(l.offset) }

func (l *Lexer) peek() byte {
	if l.offset < len(l.src) {
		return l.src[l.offset]
	}
	return 0
}

func (l *Lexer) peekAt(n int) byte {
	if l.offset+n < len(l.src) {
		return l.src[l.offset+n]
	}
	return 0
}

func isLetter(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '_'
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func (l *Lexer) skipSpace() {
	for l.offset < len(l.src) {
		switch l.src[l.offset] {
		case ' ', '\t', '\r', '\n':
			l.offset++
		default:
			return
		}
	}
}

// Next scans and returns the next token, skipping whitespace and
// comments. At end of input it returns an EOF token forever.
func (l *Lexer) Next() Token {
	for {
		t := l.scan()
		if t.Kind != token.COMMENT {
			return t
		}
	}
}

func (l *Lexer) scan() Token {
	l.skipSpace()
	pos := l.pos()
	if l.offset >= len(l.src) {
		return Token{Kind: token.EOF, Pos: pos}
	}
	c := l.src[l.offset]

	switch {
	case isLetter(c):
		start := l.offset
		for l.offset < len(l.src) && (isLetter(l.src[l.offset]) || isDigit(l.src[l.offset])) {
			l.offset++
		}
		lit := l.intern(l.src[start:l.offset])
		kind := token.Lookup(lit)
		if kind != token.IDENT {
			return Token{Kind: kind, Pos: pos, Lit: lit}
		}
		return Token{Kind: token.IDENT, Pos: pos, Lit: lit}

	case isDigit(c) || (c == '.' && isDigit(l.peekAt(1))):
		return l.scanNumber(pos)
	}

	l.offset++
	switch c {
	case '"':
		return l.scanString(pos)
	case '#':
		start := l.offset
		for l.offset < len(l.src) && l.src[l.offset] != '\n' {
			l.offset++
		}
		return Token{Kind: token.COMMENT, Pos: pos, Lit: l.intern(l.src[start:l.offset])}
	case '/':
		if l.peek() == '/' {
			start := l.offset - 1
			for l.offset < len(l.src) && l.src[l.offset] != '\n' {
				l.offset++
			}
			return Token{Kind: token.COMMENT, Pos: pos, Lit: l.intern(l.src[start:l.offset])}
		}
		return Token{Kind: token.QUO, Pos: pos}
	case '+':
		return Token{Kind: token.ADD, Pos: pos}
	case '-':
		return Token{Kind: token.SUB, Pos: pos}
	case '*':
		return Token{Kind: token.MUL, Pos: pos}
	case '%':
		return Token{Kind: token.REM, Pos: pos}
	case '=':
		if l.peek() == '=' {
			l.offset++
			return Token{Kind: token.EQL, Pos: pos}
		}
		return Token{Kind: token.ASSIGN, Pos: pos}
	case '!':
		if l.peek() == '=' {
			l.offset++
			return Token{Kind: token.NEQ, Pos: pos}
		}
		return Token{Kind: token.NOT, Pos: pos}
	case '<':
		if l.peek() == '=' {
			l.offset++
			return Token{Kind: token.LEQ, Pos: pos}
		}
		return Token{Kind: token.LSS, Pos: pos}
	case '>':
		if l.peek() == '=' {
			l.offset++
			return Token{Kind: token.GEQ, Pos: pos}
		}
		return Token{Kind: token.GTR, Pos: pos}
	case '&':
		if l.peek() == '&' {
			l.offset++
			return Token{Kind: token.LAND, Pos: pos}
		}
		l.errs.Errorf(pos, "unexpected character %q (did you mean %q?)", "&", "&&")
		return Token{Kind: token.ILLEGAL, Pos: pos, Lit: "&"}
	case '|':
		if l.peek() == '|' {
			l.offset++
			return Token{Kind: token.LOR, Pos: pos}
		}
		l.errs.Errorf(pos, "unexpected character %q (did you mean %q?)", "|", "||")
		return Token{Kind: token.ILLEGAL, Pos: pos, Lit: "|"}
	case '(':
		return Token{Kind: token.LPAREN, Pos: pos}
	case ')':
		return Token{Kind: token.RPAREN, Pos: pos}
	case '{':
		return Token{Kind: token.LBRACE, Pos: pos}
	case '}':
		return Token{Kind: token.RBRACE, Pos: pos}
	case ',':
		return Token{Kind: token.COMMA, Pos: pos}
	case ';':
		return Token{Kind: token.SEMICOLON, Pos: pos}
	}
	l.errs.Errorf(pos, "unexpected character %q", string(c))
	return Token{Kind: token.ILLEGAL, Pos: pos, Lit: string(c)}
}

func (l *Lexer) scanNumber(pos source.Pos) Token {
	start := l.offset
	kind := token.INTLIT
	for l.offset < len(l.src) && isDigit(l.src[l.offset]) {
		l.offset++
	}
	if l.peek() == '.' && l.peekAt(1) != '.' {
		kind = token.REALLIT
		l.offset++
		for l.offset < len(l.src) && isDigit(l.src[l.offset]) {
			l.offset++
		}
	}
	if c := l.peek(); c == 'e' || c == 'E' {
		mark := l.offset
		l.offset++
		if c := l.peek(); c == '+' || c == '-' {
			l.offset++
		}
		if isDigit(l.peek()) {
			kind = token.REALLIT
			for l.offset < len(l.src) && isDigit(l.src[l.offset]) {
				l.offset++
			}
		} else {
			l.offset = mark // 'e' begins an identifier, not an exponent
		}
	}
	lit := l.intern(l.src[start:l.offset])
	if isLetter(l.peek()) {
		l.errs.Errorf(l.pos(), "identifier immediately follows number %q", lit)
	}
	return Token{Kind: kind, Pos: pos, Lit: lit}
}

func (l *Lexer) scanString(pos source.Pos) Token {
	start := l.offset
	for l.offset < len(l.src) && l.src[l.offset] != '"' && l.src[l.offset] != '\n' {
		l.offset++
	}
	if l.offset >= len(l.src) || l.src[l.offset] != '"' {
		l.errs.Errorf(pos, "unterminated string literal")
		return Token{Kind: token.ILLEGAL, Pos: pos, Lit: l.intern(l.src[start:l.offset])}
	}
	lit := l.intern(l.src[start:l.offset])
	l.offset++ // closing quote
	return Token{Kind: token.STRINGLIT, Pos: pos, Lit: lit}
}

// ScanAll returns every token up to and including EOF. Mainly for tests.
func (l *Lexer) ScanAll() []Token {
	var out []Token
	for {
		t := l.Next()
		out = append(out, t)
		if t.Kind == token.EOF {
			return out
		}
	}
}
