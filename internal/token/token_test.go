package token

import (
	"strings"
	"testing"
)

func TestLookup(t *testing.T) {
	cases := map[string]Kind{
		"proc": PROC, "func": FUNC, "while": WHILE, "true": TRUE,
		"int": INT, "notakeyword": IDENT, "Proc": IDENT,
	}
	for s, want := range cases {
		if got := Lookup(s); got != want {
			t.Errorf("Lookup(%q) = %v, want %v", s, got, want)
		}
	}
}

// TestLookupKeywordTable: every keyword maps to its kind, and no near
// miss of one does: its proper prefixes, a one-letter extension, the
// wrong case, and every spelling of the same length with the same
// first and last bytes (which land in the keyword's slot), such as
// "pxoc" for "proc".
func TestLookupKeywordTable(t *testing.T) {
	keyword := map[string]bool{}
	for k := keywordBeg + 1; k < keywordEnd; k++ {
		keyword[k.String()] = true
		if got := Lookup(k.String()); got != k {
			t.Errorf("Lookup(%q) = %v, want %v", k.String(), got, k)
		}
	}
	miss := func(s string) {
		t.Helper()
		if got := Lookup(s); !keyword[s] && got != IDENT {
			t.Errorf("Lookup(%q) = %v, want IDENT", s, got)
		}
	}
	miss("")
	for kw := range keyword {
		for n := 1; n < len(kw); n++ {
			miss(kw[:n])
		}
		miss(kw + "x")
		miss(kw + "_")
		miss(strings.ToUpper(kw))
		miss(strings.ToUpper(kw[:1]) + kw[1:])
		miss(kw[:len(kw)-1] + strings.ToUpper(kw[len(kw)-1:]))
		for i := 1; i < len(kw)-1; i++ {
			for c := byte('0'); c <= 'z'; c++ {
				b := []byte(kw)
				b[i] = c
				miss(string(b))
			}
		}
	}
}

func TestClassification(t *testing.T) {
	if !IDENT.IsLiteral() || !INTLIT.IsLiteral() || ADD.IsLiteral() {
		t.Error("literal classification")
	}
	if !ADD.IsOperator() || !SEMICOLON.IsOperator() || PROC.IsOperator() {
		t.Error("operator classification")
	}
	if !PROC.IsKeyword() || !CONTINUE.IsKeyword() || IDENT.IsKeyword() {
		t.Error("keyword classification")
	}
}

func TestPrecedenceLadder(t *testing.T) {
	// || < && < comparisons < additive < multiplicative.
	if !(LOR.Precedence() < LAND.Precedence() &&
		LAND.Precedence() < EQL.Precedence() &&
		EQL.Precedence() < ADD.Precedence() &&
		ADD.Precedence() < MUL.Precedence()) {
		t.Error("precedence ladder broken")
	}
	for _, k := range []Kind{LPAREN, PROC, IDENT, NOT, ASSIGN} {
		if k.Precedence() != 0 {
			t.Errorf("%v must have no binary precedence", k)
		}
	}
	// All comparison operators share a level.
	for _, k := range []Kind{NEQ, LSS, LEQ, GTR, GEQ} {
		if k.Precedence() != EQL.Precedence() {
			t.Errorf("%v precedence differs from ==", k)
		}
	}
}

func TestString(t *testing.T) {
	if ADD.String() != "+" || PROC.String() != "proc" || EOF.String() != "EOF" {
		t.Error("token rendering")
	}
	if Kind(999).String() != "Kind(999)" {
		t.Errorf("unknown kind rendering: %s", Kind(999))
	}
}
