package incr

import (
	"bufio"
	"encoding/binary"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"fsicp/internal/lexer"
	"fsicp/internal/progen"
	"fsicp/internal/source"
	"fsicp/internal/token"
)

// refTokenKey is the token key as its own lexer sweep computed it
// before SweepSource merged it with the split: the reference the
// merged sweep's key must equal.
func refTokenKey(src string) string {
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
	for _, d := range errs.Diags {
		w.str(d.Message)
	}
	return w.sum()
}

// refSplitSource is the split as its own lexer sweep computed it, with
// the initializers digested apart from the skeleton: the reference the
// merged sweep's split must equal. It stops at the first token the
// split fails on.
func refSplitSource(src string) (Split, bool) {
	var errs source.ErrorList
	f := &source.File{Content: src}
	l := lexer.NewSweep(f, &errs)
	skel, inits := newFPWriter(), newFPWriter()
	sp := Split{Globals: -1}
	var (
		body         *fpWriter
		depth        int
		header       bool
		global, init bool
		ended        bool
	)
	fail := func() (Split, bool) {
		if body != nil {
			body.sum()
		}
		skel.sum()
		inits.sum()
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
		case token.GLOBAL:
			if sp.Globals < 0 {
				sp.Globals = f.Offset(t.Pos)
			}
			global, init = true, false
			inits.token(t)
		case token.PROC, token.FUNC:
			if header {
				return fail()
			}
			header, global, init = true, false, false
			sp.Procs = append(sp.Procs, ProcSpan{Start: f.Offset(t.Pos)})
		case token.ASSIGN:
			if global {
				init = true
			}
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
		if init {
			inits.token(t)
		} else {
			skel.token(t)
		}
	}
	if depth > 0 || header || len(errs.Diags) > 0 {
		return fail()
	}
	sp.Skeleton = skel.sum()
	sp.Inits = inits.digest()
	return sp, true
}

// checkSweep compares SweepSource with the two reference sweeps.
func checkSweep(t *testing.T, src string) {
	t.Helper()
	sw := SweepSource(src)
	if want := refTokenKey(src); sw.Key != want {
		t.Fatalf("key %s, reference %s, for %q", sw.Key, want, src)
	}
	split, ok := refSplitSource(src)
	if sw.SplitOK != ok {
		t.Fatalf("split ok = %v, reference %v, for %q", sw.SplitOK, ok, src)
	}
	if !ok {
		return
	}
	got := sw.Split
	if got.Skeleton != split.Skeleton || got.Inits != split.Inits || got.Globals != split.Globals {
		t.Fatalf("skeleton, initializers or globals offset differ from the reference's for %q", src)
	}
	if len(got.Procs) != len(split.Procs) {
		t.Fatalf("%d spans, reference %d, for %q", len(got.Procs), len(split.Procs), src)
	}
	for i := range got.Procs {
		if got.Procs[i] != split.Procs[i] {
			t.Fatalf("span %d = %+v, reference %+v, for %q", i, got.Procs[i], split.Procs[i], src)
		}
	}
}

// sweepMalformed are sources the split must handle without a program
// to split: an unterminated string, an illegal character, unbalanced
// braces, a procedure header without a body, and a source that ends
// mid-header.
var sweepMalformed = []string{
	"program p\nproc main() {\n  print \"open\n}\n",
	"program p\nproc main() {\n  print 1 $ 2\n}\n",
	"program p\nproc main() {\n  if true {\n    print 1\n}\n",
	"program p\nproc main() {\n  print 1\n}\n}\n",
	"program p\nproc h()\nproc main() {\n  print 1\n}\n",
	"program p\nglobal g int = 1\nproc main(x int",
}

// TestSourceSweepMatchesReferences: on every sample program, the
// parser's fuzz corpus and the malformed sources, the merged sweep
// yields the reference key, skeleton, initializers and spans.
func TestSourceSweepMatchesReferences(t *testing.T) {
	for _, src := range append(sweepSeeds(t), splitBase) {
		checkSweep(t, src)
	}
	for _, src := range sweepMalformed {
		checkSweep(t, src)
		if SweepSource(src).SplitOK {
			t.Errorf("malformed source split: %q", src)
		}
	}
}

// FuzzSourceSweep: for any source, the merged sweep yields what the
// two reference sweeps yield.
func FuzzSourceSweep(f *testing.F) {
	for _, src := range sweepSeeds(f) {
		f.Add(src)
	}
	for _, src := range sweepMalformed {
		f.Add(src)
	}
	f.Add(splitBase)
	f.Fuzz(checkSweep)
}

// sweepSeeds reads every sample program under testdata/programs and
// every entry of the parser's FuzzParse corpus.
func sweepSeeds(tb testing.TB) []string {
	tb.Helper()
	var srcs []string
	progs, err := filepath.Glob("../../testdata/programs/*.mf")
	if err != nil || len(progs) == 0 {
		tb.Fatalf("no sample programs: %v", err)
	}
	for _, path := range progs {
		b, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		srcs = append(srcs, string(b))
	}
	corpus, err := filepath.Glob("../parser/testdata/fuzz/FuzzParse/*")
	if err != nil || len(corpus) == 0 {
		tb.Fatalf("no FuzzParse corpus: %v", err)
	}
	for _, path := range corpus {
		fh, err := os.Open(path)
		if err != nil {
			tb.Fatal(err)
		}
		sc := bufio.NewScanner(fh)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			if lit, ok := strings.CutPrefix(sc.Text(), "string("); ok {
				src, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
				if err != nil {
					tb.Fatalf("%s: %v", path, err)
				}
				srcs = append(srcs, src)
			}
		}
		fh.Close()
		if err := sc.Err(); err != nil {
			tb.Fatal(err)
		}
	}
	return srcs
}

// BenchmarkSourceSweep sweeps a 1025-procedure program of about 240 KB,
// the size of one edit-serve client's: the per-update cost of keying
// and splitting a source.
func BenchmarkSourceSweep(b *testing.B) {
	files, _ := progen.GenerateModules(progen.ModuleConfig{Seed: 1010, Modules: 8, ProcsPerModule: 128, Globals: 8,
		BlockData: 16, SCCSize: 4, FanOut: 8, MaxStmts: 4, AllowFloats: true})
	src := progen.Flatten(files)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweepSink = SweepSource(src)
	}
}

var sweepSink Sweep
