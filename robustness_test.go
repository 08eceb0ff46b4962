package fsicp_test

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	fsicp "fsicp"
)

// adversarialSources is the malformed/pathological input matrix the
// public entrypoints must reject with a positioned error (or accept)
// without ever panicking. The same shapes are seeded into FuzzParse's
// corpus (internal/parser/testdata/fuzz/FuzzParse).
func adversarialSources() map[string]string {
	return map[string]string{
		"deep-parens":     "program p\nproc main() { x = " + strings.Repeat("(", 60000) + "1" + strings.Repeat(")", 60000) + " }",
		"huge-literal":    "program p\nproc main() { print 999999999999999999999999999999 }",
		"div-zero-const":  "program p\nproc main() { var x int = 1/0\n print x }",
		"repeat-header":   strings.Repeat("program p\n", 10000),
		"many-procs":      "program p\n" + strings.Repeat("proc a() {}\n", 20000),
		"deep-ifs":        "program p\nproc main() {" + strings.Repeat(" if true {", 20000) + strings.Repeat("}", 20000) + "}",
		"many-args":       "program p\nproc main() { call main(" + strings.Repeat("1,", 5000) + "1) }",
		"null-bytes":      "program \x00\xff\nproc main() { \x00 }",
		"truncated-str":   "program p\nproc main() { print \"unter",
		"empty":           "",
		"only-whitespace": " \t\n\r\n ",
	}
}

// TestLoadNeverPanicsOnMalformedInput: every adversarial input either
// loads or returns an error with a source position; none may panic.
func TestLoadNeverPanicsOnMalformedInput(t *testing.T) {
	for name, src := range adversarialSources() {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Load panicked: %v", r)
				}
			}()
			prog, err := fsicp.Load(name+".mf", src)
			if err != nil {
				if !strings.Contains(err.Error(), ".mf") && !strings.Contains(err.Error(), ":") {
					t.Errorf("error is not positioned: %v", err)
				}
				return
			}
			// Accepted input must also analyse without panicking.
			prog.Analyze(fsicp.Config{Method: fsicp.FlowSensitive, PropagateFloats: true})
		})
	}
}

// TestSessionUpdateNeverPanicsOnMalformedInput: a live session fed
// malformed updates reports errors and keeps its last good version.
func TestSessionUpdateNeverPanicsOnMalformedInput(t *testing.T) {
	good := "program p\nproc main() { call f(1) }\nproc f(a int) { print a }"
	sess, err := fsicp.NewSession("s.mf", good)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fsicp.Config{Method: fsicp.FlowSensitive, PropagateFloats: true}
	want := fingerprint(sess.Analyze(cfg))
	for name, src := range adversarialSources() {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%s: Update panicked: %v", name, r)
				}
			}()
			if _, err := sess.Update(src); err != nil {
				return // rejected; session must still serve the old version
			}
			// Accepted: roll back to the known-good program for the
			// invariant check below.
			if _, err := sess.Update(good); err != nil {
				t.Fatalf("%s: rollback failed: %v", name, err)
			}
		}()
		if got := fingerprint(sess.Analyze(cfg)); got != want {
			t.Fatalf("%s: session analysis changed after a rejected update", name)
		}
	}
}

// TestSingleFileIsOneFileCorpus: a single source loads exactly as the
// one-file corpus holding it — the same error text, or the same IR,
// formatted source and flow-sensitive result.
func TestSingleFileIsOneFileCorpus(t *testing.T) {
	sources := adversarialSources()
	paths, err := filepath.Glob("testdata/programs/*.mf")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no testdata programs: %v", err)
	}
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sources[filepath.Base(path)] = string(b)
	}
	names := make([]string, 0, len(sources))
	for name := range sources {
		names = append(names, name)
	}
	sort.Strings(names)
	cfg := fsicp.Config{Method: fsicp.FlowSensitive, PropagateFloats: true}
	for _, name := range names {
		src := sources[name]
		t.Run(name, func(t *testing.T) {
			single, err1 := fsicp.LoadWith(name, src, fsicp.LoadOptions{})
			corpus, err2 := fsicp.LoadFiles([]fsicp.SourceFile{{Name: name, Src: src}}, fsicp.LoadOptions{})
			if err1 != nil || err2 != nil {
				if err1 == nil || err2 == nil || err1.Error() != err2.Error() {
					t.Fatalf("LoadWith err = %v\nLoadFiles err = %v", err1, err2)
				}
				return
			}
			if single.DumpIR() != corpus.DumpIR() {
				t.Error("DumpIR differs")
			}
			if single.FormatSource() != corpus.FormatSource() {
				t.Error("FormatSource differs")
			}
			if fingerprint(single.Analyze(cfg)) != fingerprint(corpus.Analyze(cfg)) {
				t.Error("flow-sensitive result differs")
			}
		})
	}
}

// TestModuleOnlySingleFile pins the diagnostic for a single file that
// is a module: the corpus loader's positioned "no 'program' unit".
func TestModuleOnlySingleFile(t *testing.T) {
	_, err := fsicp.Load("m.mf", "module m\nproc f() {}\n")
	want := "m.mf:1:8: error: corpus has no 'program' unit (1 module files)"
	if err == nil || err.Error() != "pass parse: "+want {
		t.Errorf("err = %v, want %q", err, "pass parse: "+want)
	}
}
