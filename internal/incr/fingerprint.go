package incr

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"strconv"
	"sync"

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
	l := lexer.NewSweep(&source.File{Content: src}, &errs)
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

// Split divides a source's token stream into its skeleton and its
// procedure bodies. A body is the tokens from a procedure's opening
// brace to the matching closing brace; the skeleton is every other
// token: the unit header, each global declaration with its
// initializer, and each procedure header. Two sources with equal
// skeletons declare the same globals and procedures in the same order,
// so a program loaded from one can take the procedures whose bodies
// did not change from it.
type Split struct {
	// Skeleton digests the skeleton's tokens, each body standing in it
	// as one marker.
	Skeleton string
	// Procs locates each procedure, in declaration order.
	Procs []ProcSpan
}

// ProcSpan locates one procedure of a split source.
type ProcSpan struct {
	// Start is the byte offset of the procedure's proc or func keyword.
	Start int
	// Next is the byte offset of the first token after its closing
	// brace, or the source length when none follows.
	Next int
	// Body digests the body's tokens: kinds and spellings, never
	// positions.
	Body [sha256.Size]byte
}

// SplitSource splits src in one lexer sweep. It reports false, and no
// split, when the scan reports a diagnostic or the braces outside
// procedure bodies do not pair up as procedure headers and bodies.
func SplitSource(src string) (Split, bool) {
	var errs source.ErrorList
	f := &source.File{Content: src} // offsets only: no line index
	l := lexer.NewSweep(f, &errs)
	skel := newFPWriter()
	var (
		sp     Split
		body   *fpWriter
		depth  int
		header bool // inside a procedure header
		ended  bool // the last body closed; its Next is the next token
	)
	fail := func() (Split, bool) {
		if body != nil {
			body.sum()
		}
		skel.sum()
		return Split{}, false
	}
	for {
		t := l.Next()
		if ended {
			sp.Procs[len(sp.Procs)-1].Next = f.Offset(t.Pos)
			ended = false
		}
		if t.Kind == token.EOF {
			break
		}
		if depth > 0 {
			body.token(t)
			switch t.Kind {
			case token.LBRACE:
				depth++
			case token.RBRACE:
				if depth--; depth == 0 {
					sp.Procs[len(sp.Procs)-1].Body = body.digest()
					body, ended = nil, true
				}
			}
			continue
		}
		switch t.Kind {
		case token.PROC, token.FUNC:
			if header {
				return fail()
			}
			header = true
			sp.Procs = append(sp.Procs, ProcSpan{Start: f.Offset(t.Pos)})
		case token.LBRACE:
			if !header {
				return fail()
			}
			header, depth = false, 1
			skel.buf = binary.AppendUvarint(skel.buf, bodyMarker)
			body = newFPWriter()
			body.token(t)
			continue
		case token.RBRACE:
			return fail()
		}
		skel.token(t)
	}
	if depth > 0 || header || len(errs.Diags) > 0 {
		return fail()
	}
	sp.Skeleton = skel.sum()
	return sp, true
}

// ProcFingerprint computes a procedure's key: everything about one
// procedure that its own SCC pass reads, plus the shape of the summary
// it produces. That is the signature (name, kind, result and parameter
// types, locals, visible globals); the full IR — blocks with their
// predecessor lists, every instruction including clobbers and MayDef
// sets, terminators, and per call site the by-reference actuals
// (whether an actual aliases a caller variable changes the clobber
// semantics); the declaration indices of p's own global segment, which
// with the parameters fix the layout of its entry and exit frames (a
// caller's edit can change the segment without touching p's IR: an
// alias pair, or a global passed to p by reference); and, per call
// site in fn.Calls order, ref(callee): the declaration indices of the
// callee's REF globals, which the summary records at that site. A
// callee edit that grows or shrinks its REF set therefore changes every
// caller's key. The IR is hashed structurally rather than via its
// textual dump: fingerprinting runs on every incremental analysis, and
// the fmt-based dump dominated its cost.
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
	w.tag('g')
	for _, g := range fn.Globals() {
		w.num(g.Index)
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

// fpPool recycles writers, buffer and hash state alike: a load takes
// one key per procedure, and the value cache one per entry
// environment.
var fpPool = sync.Pool{New: func() any {
	return &fpWriter{h: sha256.New(), buf: make([]byte, 0, 4096)}
}}

// newFPWriter returns an empty writer from the pool; sum returns it.
func newFPWriter() *fpWriter {
	w := fpPool.Get().(*fpWriter)
	w.h.Reset()
	w.buf = w.buf[:0]
	return w
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

// token writes one token as its kind and its length-prefixed spelling,
// both as uvarints, so any spelling, an empty string literal included,
// stays unambiguous.
func (w *fpWriter) token(t lexer.Token) {
	w.buf = binary.AppendUvarint(w.buf, uint64(t.Kind))
	w.buf = binary.AppendUvarint(w.buf, uint64(len(t.Lit)))
	w.buf = append(w.buf, t.Lit...)
	w.spill()
}

// bodyMarker stands for a procedure body in a split's skeleton, where
// token writes a kind; no token kind is as large.
const bodyMarker = 1 << 20

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

func (w *fpWriter) val(v val.Value) {
	w.buf = appendValKey(w.buf, v)
	w.buf = append(w.buf, 0)
	w.spill()
}

// elem writes one lattice element exactly.
func (w *fpWriter) elem(e lattice.Elem) {
	switch {
	case e.IsTop():
		w.tag('T')
	case e.IsConst():
		w.tag('C')
		w.val(e.Val())
	default:
		w.tag('B')
	}
}

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

// sum returns the hex digest and puts the writer back in the pool; the
// writer must not be used afterwards.
func (w *fpWriter) sum() string {
	d := w.digest()
	return hex.EncodeToString(d[:])
}

// digest is sum's raw digest.
func (w *fpWriter) digest() [sha256.Size]byte {
	w.h.Write(w.buf)
	var d [sha256.Size]byte
	w.h.Sum(d[:0])
	fpPool.Put(w)
	return d
}

// GlobalsFingerprint fingerprints the layout of the globals section:
// names, types and declaration order. Portable summaries index globals
// by declaration slot, so the engine drops the value cache entirely
// when the layout changes. Initial values are deliberately left out:
// they reach an SCC run only through entry environments (main's seed
// and the flow-insensitive back-edge fallback), which Stands and
// EnvKey already compare, so an initializer edit keeps every summary
// whose entry environment it does not change.
func GlobalsFingerprint(globals []*sem.Var) string {
	h := sha256.New()
	for _, g := range globals {
		h.Write([]byte(g.Name))
		h.Write([]byte{0})
		h.Write([]byte(g.Type.String()))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// EnvKey canonically encodes an entry frame plus the procedure's
// liveness, digested to a fixed-size key. Slots are encoded in order;
// the procedure key fixes what each slot holds, so within one key two
// frames share an EnvKey iff an SCC run would see identical inputs.
// Values are encoded exactly (float constants by bit pattern, not
// decimal formatting). The digest matters for memory, not just
// hygiene: these keys live in the value cache for many generations,
// and the full encoding of a wide frame runs to kilobytes of
// GC-scanned string per entry.
func EnvKey(frame []lattice.Elem, live bool) string {
	w := newFPWriter()
	if live {
		w.tag('L')
	} else {
		w.tag('D')
	}
	for _, e := range frame {
		w.elem(e)
	}
	return w.sum()
}

// appendValKey appends an injective encoding of a constant value.
// val.Value.String uses %g for reals, which collapses distinct values;
// the bit pattern does not.
func appendValKey(b []byte, v val.Value) []byte {
	switch v.Type {
	case ast.TypeInt:
		return strconv.AppendInt(append(b, 'i'), v.I, 10)
	case ast.TypeReal:
		return strconv.AppendUint(append(b, 'r'), math.Float64bits(v.R), 16)
	case ast.TypeBool:
		if v.B {
			return append(b, "b1"...)
		}
		return append(b, "b0"...)
	default:
		return append(append(b, '?'), v.String()...)
	}
}
