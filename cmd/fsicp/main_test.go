package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	fsicp "fsicp"
	"fsicp/internal/report"
)

var update = flag.Bool("update", false, "rewrite golden files")

// loadConstants loads the golden tests' input program.
func loadConstants(t *testing.T) *fsicp.Program {
	t.Helper()
	src, err := os.ReadFile("../../testdata/programs/constants.mf")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := fsicp.Load("constants.mf", string(src))
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// checkGolden compares got with testdata/name, rewriting the file
// first under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run: go test ./cmd/fsicp -update)", err)
	}
	if string(got) != string(want) {
		t.Errorf("JSON report drifted from %s:\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}

// TestJSONReportGolden pins the -json output shape: the report must be
// byte-identical across runs (it carries no timings) and across worker
// counts, and any intentional change to the encoding must update the
// golden file (go test ./cmd/fsicp -update).
func TestJSONReportGolden(t *testing.T) {
	prog := loadConstants(t)
	cfg := fsicp.Config{
		Method:          fsicp.FlowSensitive,
		PropagateFloats: true,
		ReturnConstants: true,
		Workers:         1,
	}
	got, err := report.Build(prog, prog.Analyze(cfg), cfg).Encode()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "report.golden.json", got)

	// The report must not depend on the worker count.
	cfg.Workers = 8
	again, err := report.Build(prog, prog.Analyze(cfg), cfg).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(got) {
		t.Error("JSON report differs between worker counts")
	}
}

// TestJSONReportBlocksGolden pins the optional report blocks the clean
// golden omits: "degradations" (a starved fuel budget), "cache" (a
// cold persistent store) and "optimize" (every pass, as -optimize
// -json attaches it).
func TestJSONReportBlocksGolden(t *testing.T) {
	base := fsicp.Config{
		Method:          fsicp.FlowSensitive,
		PropagateFloats: true,
		ReturnConstants: true,
		Workers:         1,
	}
	for _, tc := range []struct {
		name     string
		edit     func(*fsicp.Config)
		optimize bool
	}{
		{name: "fuel", edit: func(c *fsicp.Config) { c.Fuel = 1 }},
		{name: "cache", edit: func(c *fsicp.Config) { c.CacheDir = t.TempDir() }},
		{name: "optimize", optimize: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog := loadConstants(t)
			cfg := base
			if tc.edit != nil {
				tc.edit(&cfg)
			}
			a := prog.Analyze(cfg)
			rep := report.Build(prog, a, cfg)
			if tc.optimize {
				opt, err := a.Optimize(fsicp.AllOptimizations())
				if err != nil {
					t.Fatal(err)
				}
				rep.Optimize = &opt
			}
			got, err := rep.Encode()
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "report."+tc.name+".golden.json", got)
		})
	}
}

// TestCheckMethod: -method is validated before the load, so an unknown
// method, or a jump-function baseline under -json, -optimize or
// -watch, fails instead of printing output the flags did not ask for.
func TestCheckMethod(t *testing.T) {
	for _, tc := range []struct {
		method                   string
		jsonOut, optimize, watch bool
		want                     string // "" = accepted
	}{
		{method: "fs", jsonOut: true, optimize: true, watch: true},
		{method: "fi", jsonOut: true},
		{method: "iter", optimize: true},
		{method: "literal"},
		{method: "polynomial"},
		{method: "bogus", want: `unknown method "bogus"`},
		{method: "literal", jsonOut: true, want: `-json supports the fs|fi|iter methods, not "literal"`},
		{method: "intra", optimize: true, want: `-optimize supports the fs|fi|iter methods, not "intra"`},
		{method: "passthrough", watch: true, want: `-watch supports the fs|fi|iter methods, not "passthrough"`},
	} {
		err := checkMethod(tc.method, tc.jsonOut, tc.optimize, tc.watch)
		got := ""
		if err != nil {
			got = err.Error()
		}
		if got != tc.want {
			t.Errorf("checkMethod(%q, json=%t, optimize=%t, watch=%t) = %q, want %q",
				tc.method, tc.jsonOut, tc.optimize, tc.watch, got, tc.want)
		}
	}
}

// runMain runs the command in process with args and returns what it
// wrote to stdout and stderr.
func runMain(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	args0, flags, out0, err0 := os.Args, flag.CommandLine, os.Stdout, os.Stderr
	defer func() { os.Args, flag.CommandLine, os.Stdout, os.Stderr = args0, flags, out0, err0 }()
	var files [2]*os.File
	for i := range files {
		f, err := os.Create(filepath.Join(t.TempDir(), "out"))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		files[i] = f
	}
	os.Args = append([]string{"fsicp"}, args...)
	flag.CommandLine = flag.NewFlagSet("fsicp", flag.PanicOnError)
	os.Stdout, os.Stderr = files[0], files[1]
	main()
	var got [2]string
	for i, f := range files {
		b, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		got[i] = string(b)
	}
	return got[0], got[1]
}

// TestJSONStats: with -json, -stats writes the pass table, optimizer
// rows included, to stderr, and stdout stays byte-identical to a run
// without it.
func TestJSONStats(t *testing.T) {
	args := []string{"-json", "-returns", "-optimize", "-workers", "1", "../../testdata/programs/constants.mf"}
	want, quiet := runMain(t, args...)
	got, stats := runMain(t, append([]string{"-stats"}, args...)...)
	if got != want || !strings.HasPrefix(got, "{") {
		t.Errorf("-stats changed stdout:\n%s\nwant\n%s", got, want)
	}
	if quiet != "" {
		t.Errorf("stderr without -stats: %q", quiet)
	}
	for _, row := range []string{"parse", "opt-fold", "opt-licm", "opt-finish", "TOTAL"} {
		if !strings.Contains(stats, row) {
			t.Errorf("stderr with -stats lacks the %s row:\n%s", row, stats)
		}
	}
}
