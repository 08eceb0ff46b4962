package main

import (
	"fmt"
	"math/rand"
	"os"
	"strings"

	fsicp "fsicp"
	"fsicp/internal/progen"
)

// corpusConfig is the generator configuration of the cold-compile and
// analyze-methods corpus: 2305 procedures, 392 globals, 25 files and 24
// call-graph back edges. 392 globals match the 10k-procedure corpus's
// global count, so the O(procedures × globals) SSA tables are present
// at a size where one compile stays near two seconds.
func corpusConfig(seed int64) progen.ModuleConfig {
	return progen.ModuleConfig{Seed: seed, Modules: 24, ProcsPerModule: 96, Globals: 8,
		BlockData: 16, SCCSize: 4, FanOut: 8, MaxStmts: 4, AllowFloats: true}
}

// serveConfig is the generator configuration of each edit-serve
// client's program: 1025 procedures and 136 globals.
func serveConfig(seed int64) progen.ModuleConfig {
	cfg := corpusConfig(seed)
	cfg.Modules, cfg.ProcsPerModule = 8, 128
	return cfg
}

// scaledDown shrinks a configuration until the reference interpreter
// runs the program within its step limit, keeping every other knob.
func scaledDown(cfg progen.ModuleConfig) progen.ModuleConfig {
	cfg.Modules, cfg.ProcsPerModule = 3, 16
	return cfg
}

// clientSeed derives client i's program seed, so the clients of one
// run own distinct programs and the same run seed gives the same ones.
func clientSeed(seed int64, client int) int64 { return seed*1009 + int64(client) + 1 }

// flatten concatenates a multi-module corpus into one program source,
// because the daemon takes a single source. The program header comes
// first, then every global declaration in file order, then every
// procedure in file order: the same declaration order ast.MergeUnits
// gives the multi-file corpus, so both load to the same program.
func flatten(files []progen.File) string {
	var head, globals, procs strings.Builder
	for _, f := range files {
		for _, line := range strings.SplitAfter(f.Src, "\n") {
			switch {
			case strings.HasPrefix(line, "program "):
				head.WriteString(line)
			case strings.HasPrefix(line, "module "):
			case strings.HasPrefix(line, "global "):
				globals.WriteString(line)
			default:
				procs.WriteString(line)
			}
		}
	}
	return head.String() + "\n" + globals.String() + procs.String()
}

// editStream returns n flattened versions of a corpus: the first is
// the corpus itself, and each later one applies one progen.Edit to one
// seeded-random file of its predecessor, as a user works on one module
// at a time. Editing a file rather than the flattened source keeps
// each edit's cost independent of the program's size.
func editStream(files []progen.File, seed int64, n int) []string {
	files = append([]progen.File(nil), files...)
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, 0, n)
	out = append(out, flatten(files))
	for i := 1; i < n; i++ {
		k := rng.Intn(len(files))
		files[k].Src = progen.Edit(files[k].Src, seed*100003+int64(i))
		out = append(out, flatten(files))
	}
	return out
}

// sourceFiles converts generated files to the facade's input type.
func sourceFiles(files []progen.File) []fsicp.SourceFile {
	out := make([]fsicp.SourceFile, len(files))
	for i, f := range files {
		out[i] = fsicp.SourceFile{Name: f.Name, Src: f.Src}
	}
	return out
}

// writeCorpus generates the corpus for cfg and writes it, with its
// manifest, into dir, replacing anything there.
func writeCorpus(dir string, cfg progen.ModuleConfig) ([]progen.File, error) {
	files, m := progen.GenerateModules(cfg)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := progen.WriteCorpus(dir, files, m); err != nil {
		return nil, fmt.Errorf("write corpus: %w", err)
	}
	return files, nil
}

func totalBytes(files []progen.File) int {
	n := 0
	for _, f := range files {
		n += len(f.Src)
	}
	return n
}
