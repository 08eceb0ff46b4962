package incr

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"slices"
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

// Sweep is what one lexer sweep of a source text yields: its token
// key and its split.
type Sweep struct {
	// Key fingerprints the token stream: kinds and spellings, never
	// positions, then the scan's diagnostics, which parse outcomes may
	// depend on. Comments and whitespace are invisible to the scanner,
	// so two sources with equal keys parse to structurally identical
	// programs and a compiled program can be shared between them.
	Key string
	// Split is the source's split when SplitOK.
	Split   Split
	SplitOK bool
}

// Split divides a source's token stream into its skeleton, its global
// initializers and its procedure bodies. A body is the tokens from a
// procedure's opening brace to the matching closing brace; an
// initializer is the tokens from a global declaration's "=" to the
// next global, proc or func keyword; the skeleton is every other
// token: the unit header, each global declaration without its
// initializer, and each procedure header. Two sources with equal
// skeletons declare the same globals and procedures in the same order,
// so a program loaded from one can take from it the procedures whose
// bodies did not change, and, when the initializers are unchanged too,
// the global declarations.
type Split struct {
	// Skeleton digests the skeleton's tokens, each body standing in it
	// as one marker.
	Skeleton string
	// Inits digests the initializers' tokens, each global keyword
	// standing before its declaration's.
	Inits [sha256.Size]byte
	// Globals is the byte offset of the first global keyword, or -1
	// when there is none.
	Globals int
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

// SweepSource keys and splits src in one lexer sweep. The split fails
// when the scan reports a diagnostic or the braces outside procedure
// bodies do not pair up as procedure headers and bodies.
func SweepSource(src string) Sweep {
	var errs source.ErrorList
	f := &source.File{Content: src} // offsets only: no line index
	l := lexer.NewSweep(f, &errs)
	key, skel, inits := newFPWriter(), newFPWriter(), newFPWriter()
	sp := Split{Globals: -1}
	var (
		body    *fpWriter
		depth   int
		header  bool // inside a procedure header
		global  bool // inside a global declaration
		init    bool // inside a global's initializer
		ended   bool // the last body closed; its Next is the next token
		splitOK = true
	)
	for {
		t := l.Next()
		if ended {
			sp.Procs[len(sp.Procs)-1].Next = f.Offset(t.Pos)
			ended = false
		}
		if t.Kind == token.EOF {
			break
		}
		key.num(int(t.Kind))
		if t.Lit != "" {
			key.str(t.Lit)
		}
		key.spill()
		if !splitOK {
			continue
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
		case token.GLOBAL:
			if sp.Globals < 0 {
				sp.Globals = f.Offset(t.Pos)
			}
			global, init = true, false
			inits.token(t)
		case token.PROC, token.FUNC:
			if header {
				splitOK = false
				continue
			}
			header, global, init = true, false, false
			sp.Procs = append(sp.Procs, ProcSpan{Start: f.Offset(t.Pos)})
		case token.ASSIGN:
			init = init || global
		case token.LBRACE:
			if !header {
				splitOK = false
				continue
			}
			header, depth = false, 1
			skel.buf = binary.AppendUvarint(skel.buf, bodyMarker)
			body = newFPWriter()
			body.token(t)
			continue
		case token.RBRACE:
			splitOK = false
			continue
		}
		if init {
			inits.token(t)
		} else {
			skel.token(t)
		}
	}
	for _, d := range errs.Diags {
		key.str(d.Message)
	}
	sw := Sweep{Key: key.sum()}
	if body != nil {
		body.sum()
	}
	if !splitOK || depth > 0 || header || len(errs.Diags) > 0 {
		skel.sum()
		inits.sum()
		return sw
	}
	sp.Skeleton = skel.sum()
	sp.Inits = inits.digest()
	sw.Split, sw.SplitOK = sp, true
	return sw
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

// ProcKey returns p's key, ProcFingerprint, through fn's memo: kept
// reports that the memo was computed from the same lowered IR and, in
// fn's current annotation, the same inputs element for element: each
// call's MayDef list and its callee's REF list, the clobber
// instructions, and the global segment. Everything else the key hashes
// is the lowered IR, which only a mutation pass changes, and that drops
// the memo. So the memo stands exactly when ProcFingerprint would hash
// the same bytes again; the inputs are compared, never inferred.
func ProcKey(p *sem.Proc, fn *ir.Func, ref func(callee *sem.Proc) []int32) (key string, kept bool) {
	if key, in, ok := fn.KeyMemo(); ok {
		w := keyInputs{in: in, check: true}
		w.walk(fn, ref)
		if w.same() {
			return key, true
		}
	}
	scratch := keyInputsPool.Get().(*ir.KeyInputs)
	w := keyInputs{in: scratch}
	w.walk(fn, ref)
	key = ProcFingerprint(p, fn, ref)
	fn.SetKey(key, ir.KeyInputs{Vars: slices.Clone(scratch.Vars), Nums: slices.Clone(scratch.Nums)})
	clear(scratch.Vars)
	scratch.Vars, scratch.Nums = scratch.Vars[:0], scratch.Nums[:0]
	keyInputsPool.Put(scratch)
	return key, false
}

// keyInputsPool recycles ProcKey's scratch encodings.
var keyInputsPool = sync.Pool{New: func() any { return new(ir.KeyInputs) }}

// keyInputs walks the inputs of a function's key outside its lowered
// IR in one order: the instruction count, the segment, then per call
// its MayDef list and its callee's REF list, then each clobber with
// its position. It appends them to in, or, with check set, compares
// them with in's from the front, without writing.
type keyInputs struct {
	in     *ir.KeyInputs
	check  bool
	vi, ni int  // the compared prefix of in.Vars and in.Nums
	differ bool // a compared element differed
}

func (w *keyInputs) walk(fn *ir.Func, ref func(callee *sem.Proc) []int32) {
	w.nums(int32(fn.NumInstrs))
	seg := fn.Globals()
	w.nums(int32(len(seg)))
	w.vars(seg)
	for _, call := range fn.Calls {
		r := ref(call.Callee)
		w.nums(int32(len(call.MayDef)), int32(len(r)))
		w.nums(r...)
		w.vars(call.MayDef)
	}
	// Under an unchanged lowered IR the instruction count differs from
	// the memo's by the clobbers added or removed, so a memo that
	// records no clobber holds iff the count is equal: no block needs
	// a walk.
	if w.check && !w.differ && w.ni == len(w.in.Nums) {
		return
	}
	for _, b := range fn.Blocks {
		for k, instr := range b.Instrs {
			if c, ok := instr.(*ir.ClobberInstr); ok {
				w.nums(int32(b.Index), int32(k), int32(len(c.Vars)))
				w.vars(c.Vars)
			}
		}
	}
}

func (w *keyInputs) vars(vs []*sem.Var) {
	switch {
	case !w.check:
		w.in.Vars = append(w.in.Vars, vs...)
	case w.differ:
	case len(w.in.Vars)-w.vi < len(vs) || !slices.Equal(w.in.Vars[w.vi:w.vi+len(vs)], vs):
		w.differ = true
	default:
		w.vi += len(vs)
	}
}

func (w *keyInputs) nums(ns ...int32) {
	switch {
	case !w.check:
		w.in.Nums = append(w.in.Nums, ns...)
	case w.differ:
	case len(w.in.Nums)-w.ni < len(ns) || !slices.Equal(w.in.Nums[w.ni:w.ni+len(ns)], ns):
		w.differ = true
	default:
		w.ni += len(ns)
	}
}

// same reports whether a check walk found in's inputs exactly.
func (w *keyInputs) same() bool {
	return !w.differ && w.vi == len(w.in.Vars) && w.ni == len(w.in.Nums)
}

// fpWriter streams fingerprint material into a hash through one
// reusable buffer, avoiding a per-field []byte conversion.
type fpWriter struct {
	h   hash.Hash
	buf []byte
	d   [sha256.Size]byte // digest's output, kept here so it does not escape
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

// num writes n in decimal, NUL-terminated; below 100, as token kinds
// and most block indices are, without strconv.
func (w *fpWriter) num(n int) {
	switch {
	case uint(n) < 10:
		w.buf = append(w.buf, byte('0'+n), 0)
	case uint(n) < 100:
		w.buf = append(w.buf, byte('0'+n/10), byte('0'+n%10), 0)
	default:
		w.buf = strconv.AppendInt(w.buf, int64(n), 10)
		w.buf = append(w.buf, 0)
	}
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
	w.h.Sum(w.d[:0])
	d := w.d
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
