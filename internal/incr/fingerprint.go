package incr

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"math"
	"sort"
	"strconv"

	"fsicp/internal/ast"
	"fsicp/internal/ir"
	"fsicp/internal/lattice"
	"fsicp/internal/lexer"
	"fsicp/internal/sem"
	"fsicp/internal/source"
	"fsicp/internal/token"
	"fsicp/internal/val"
)

// TokenKey fingerprints the token stream of a source text: kinds and
// spellings, never positions. Comments and whitespace are invisible to
// the scanner, so two sources with equal token keys parse to
// structurally identical programs and a compiled program can be
// shared between them. Computing it needs only a lexer sweep — far
// cheaper than parsing and formatting the AST to the same end.
func TokenKey(src string) string {
	var errs source.ErrorList
	l := lexer.New(source.NewFile("", src), &errs)
	w := newFPWriter()
	for {
		t := l.Next()
		if t.Kind == token.EOF {
			break
		}
		w.num(int(t.Kind))
		if t.Lit != "" {
			w.str(t.Lit)
		}
	}
	// Scan diagnostics (illegal characters, unterminated strings) are
	// part of the key: parse outcomes may depend on them.
	for _, d := range errs.Diags {
		w.str(d.Message)
	}
	return w.sum()
}

// ProcFingerprint computes a procedure's key: everything about one
// procedure that its own SCC pass reads, plus the shape of the summary
// it produces. That is the signature (name, kind, result and parameter
// types, locals, visible globals); the full IR — blocks with their
// predecessor lists, every instruction including clobbers and MayDef
// sets, terminators, and per call site the by-reference actuals
// (whether an actual aliases a caller variable changes the clobber
// semantics); and, per call site in fn.Calls order, ref(callee): the
// declaration indices of the callee's REF globals, which the summary
// records at that site. A callee edit that grows or shrinks its REF set
// therefore changes every caller's key. The IR is hashed structurally
// rather than via its textual dump: fingerprinting runs on every
// incremental analysis, and the fmt-based dump dominated its cost.
func ProcFingerprint(p *sem.Proc, fn *ir.Func, ref func(callee *sem.Proc) []int32) string {
	w := newFPWriter()
	w.str(p.Name)
	if p.IsFunc {
		w.tag('F')
	} else {
		w.tag('S')
	}
	w.str(p.Result.String())
	for _, f := range p.Params {
		w.tag('p')
		w.str(f.Name)
		w.str(f.Type.String())
	}
	for _, l := range p.Locals {
		w.tag('l')
		w.str(l.Name)
		w.str(l.Type.String())
	}
	for _, g := range p.Uses {
		w.tag('u')
		w.str(g.Name)
	}
	for _, blk := range fn.Blocks {
		w.tag('b')
		w.num(blk.Index)
		for _, pr := range blk.Preds {
			w.num(pr.Index)
		}
		for _, in := range blk.Instrs {
			w.instr(in)
		}
		w.tag('t')
		switch t := blk.Term.(type) {
		case *ir.Jump:
			w.tag('J')
			w.num(t.Target.Index)
		case *ir.If:
			w.tag('I')
			w.vr(t.Cond)
			w.num(t.Then.Index)
			w.num(t.Else.Index)
		case *ir.Ret:
			w.tag('T')
			if t.Val != nil {
				w.vr(t.Val)
			}
		case nil:
			w.tag('0') // unterminated (never produced by irbuild)
		}
	}
	for _, call := range fn.Calls {
		w.tag('c')
		for _, gi := range ref(call.Callee) {
			w.num(int(gi))
		}
	}
	return w.sum()
}

// fpWriter streams fingerprint material into a hash through one
// reusable buffer, avoiding a per-field []byte conversion.
type fpWriter struct {
	h   hash.Hash
	buf []byte
}

func newFPWriter() *fpWriter {
	return &fpWriter{h: sha256.New(), buf: make([]byte, 0, 4096)}
}

func (w *fpWriter) spill() {
	if len(w.buf) >= 2048 {
		w.h.Write(w.buf)
		w.buf = w.buf[:0]
	}
}

// str writes a NUL-terminated string (identifiers cannot contain NUL,
// so the encoding stays injective without length prefixes).
func (w *fpWriter) str(s string) {
	w.buf = append(w.buf, s...)
	w.buf = append(w.buf, 0)
	w.spill()
}

func (w *fpWriter) tag(c byte) { w.buf = append(w.buf, c) }

func (w *fpWriter) num(n int) {
	w.buf = strconv.AppendInt(w.buf, int64(n), 10)
	w.buf = append(w.buf, 0)
}

// vr writes one variable operand. The kind byte separates a compiler
// temporary from a same-named source variable; within one procedure
// names are otherwise unique per kind (sem rejects shadowing).
func (w *fpWriter) vr(v *sem.Var) {
	w.tag(byte('0' + v.Kind))
	w.str(v.Name)
}

func (w *fpWriter) val(v val.Value) { w.str(valKey(v)) }

func (w *fpWriter) instr(in ir.Instr) {
	switch in := in.(type) {
	case *ir.ConstInstr:
		w.tag('K')
		w.vr(in.Dst)
		w.val(in.Val)
	case *ir.CopyInstr:
		w.tag('Y')
		w.vr(in.Dst)
		w.vr(in.Src)
	case *ir.UnaryInstr:
		w.tag('U')
		w.vr(in.Dst)
		w.num(int(in.Op))
		w.vr(in.X)
	case *ir.BinaryInstr:
		w.tag('B')
		w.vr(in.Dst)
		w.num(int(in.Op))
		w.vr(in.X)
		w.vr(in.Y)
	case *ir.ReadInstr:
		w.tag('R')
		w.vr(in.Dst)
	case *ir.PrintInstr:
		w.tag('P')
		for _, a := range in.Args {
			if a.Var != nil {
				w.vr(a.Var)
			} else {
				w.tag('s')
				w.str(a.Str)
			}
		}
	case *ir.CallInstr:
		w.tag('C')
		w.str(in.Callee.Name)
		w.num(len(in.Callee.Params))
		if in.Dst != nil {
			w.vr(in.Dst)
		}
		w.tag('a')
		for _, a := range in.Args {
			w.vr(a)
		}
		w.tag('r')
		for i, v := range in.ByRef {
			if v != nil {
				w.num(i)
				w.vr(v)
			}
		}
		w.tag('m')
		for _, v := range in.MayDef {
			w.vr(v)
		}
	case *ir.ClobberInstr:
		w.tag('X')
		for _, v := range in.Vars {
			w.vr(v)
		}
	}
	w.tag('\n')
	w.spill()
}

func (w *fpWriter) sum() string {
	w.h.Write(w.buf)
	return hex.EncodeToString(w.h.Sum(nil))
}

// GlobalsFingerprint fingerprints the program-level inputs every
// procedure shares: the globals section (names, types, declaration
// order, initial values). Any change here shifts the global index
// space that portable summaries use, so the engine drops the value
// cache entirely when it changes.
func GlobalsFingerprint(globals []*sem.Var, init map[*sem.Var]val.Value) string {
	h := sha256.New()
	for _, g := range globals {
		h.Write([]byte(g.Name))
		h.Write([]byte{0})
		h.Write([]byte(g.Type.String()))
		h.Write([]byte{0})
		if v, ok := init[g]; ok {
			h.Write([]byte(valKey(v)))
		}
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// EnvKey canonically encodes a portable entry environment plus the
// procedure's liveness, digested to a fixed-size key. Entries are
// sorted by variable name; values are encoded exactly (float constants
// by bit pattern, not decimal formatting), so two environments share a
// key iff an SCC run would see identical inputs. The digest matters
// for memory, not just hygiene: these keys live in the value cache for
// many generations, and the full encoding of a wide environment runs
// to kilobytes of GC-scanned string per entry.
func EnvKey(env map[string]lattice.Elem, live bool) string {
	names := make([]string, 0, len(env))
	for n := range env {
		names = append(names, n)
	}
	sort.Strings(names)
	w := newFPWriter()
	if live {
		w.tag('L')
	} else {
		w.tag('D')
	}
	for _, n := range names {
		w.str(n)
		w.str(elemKey(env[n]))
	}
	return w.sum()
}

// elemKey encodes one lattice element exactly.
func elemKey(e lattice.Elem) string {
	switch {
	case e.IsTop():
		return "T"
	case e.IsConst():
		return "C" + valKey(e.Val)
	default:
		return "B"
	}
}

// valKey encodes a constant value injectively. val.Value.String uses
// %g for reals, which collapses distinct values; the bit pattern does
// not.
func valKey(v val.Value) string {
	switch v.Type {
	case ast.TypeInt:
		return "i" + strconv.FormatInt(v.I, 10)
	case ast.TypeReal:
		return "r" + strconv.FormatUint(math.Float64bits(v.R), 16)
	case ast.TypeBool:
		if v.B {
			return "b1"
		}
		return "b0"
	default:
		return "?" + v.String()
	}
}
