// Multi-module corpus generation: 10k–100k-procedure programs emitted
// as a file set (one "program" root plus N "module" files) for the
// streaming front-end and the large-corpus benchmarks.
//
// The call topology is layered so the corpus terminates by
// construction and still exercises every interprocedural feature the
// paper cares about:
//
//   - main calls the head procedure of every module (wide fan-out at
//     the root, so the analysis wavefront stays parallel);
//   - the first SCCSize procedures of each module form a recursion
//     ring — forward calls around the ring, one counter-guarded wrap
//     back to the head — giving the call graph a back edge per module
//     (the paper's FI-fallback path);
//   - the remaining procedures chain forward within the module, and
//     each module's hub fans out into the *body* of the next module
//     (never its ring), so cross-module calls are acyclic and the
//     interpreter's work stays linear in corpus size;
//   - every module carries a block-data section (initialised globals)
//     visible corpus-wide after the merge.
package progen

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"fsicp/internal/ast"
)

// ModuleConfig controls multi-module corpus generation. Count fields
// follow Config's convention: zero means "use the default", negative
// means an explicit zero.
type ModuleConfig struct {
	Seed           int64
	Modules        int // module files besides the root (default 8)
	ProcsPerModule int // procedures per module (default 32)
	Globals        int // program-wide globals in the root file (default 6)
	BlockData      int // block-data globals per module (default 12)
	SCCSize        int // recursion-ring size at each module head (default 3; negative: acyclic)
	FanOut         int // hub call fan-out into the next module (default 8)
	MaxStmts       int // filler statements per body (default 6)
	AllowFloats    bool
}

func (cfg ModuleConfig) normalize() ModuleConfig {
	cfg.Modules = defaultCount(cfg.Modules, 8)
	if cfg.Modules < 1 {
		cfg.Modules = 1
	}
	cfg.ProcsPerModule = defaultCount(cfg.ProcsPerModule, 32)
	if cfg.ProcsPerModule < 1 {
		cfg.ProcsPerModule = 1
	}
	cfg.Globals = defaultCount(cfg.Globals, 6)
	cfg.BlockData = defaultCount(cfg.BlockData, 12)
	cfg.SCCSize = defaultCount(cfg.SCCSize, 3)
	if cfg.SCCSize >= cfg.ProcsPerModule {
		cfg.SCCSize = cfg.ProcsPerModule - 1 // the ring never swallows the whole module
	}
	cfg.FanOut = defaultCount(cfg.FanOut, 8)
	cfg.MaxStmts = defaultCount(cfg.MaxStmts, 6)
	return cfg
}

// File is one generated corpus file.
type File struct {
	Name string
	Src  string
}

// Manifest describes a corpus written to disk: the generation
// parameters and the files in load order.
type Manifest struct {
	Name    string   `json:"name"`
	Seed    int64    `json:"seed"`
	Procs   int      `json:"procs"`
	Globals int      `json:"globals"`
	Files   []string `json:"files"`
}

// ManifestName is the manifest's file name inside a corpus directory.
const ManifestName = "corpus.json"

// GenerateModules generates a multi-module corpus. The returned files
// are in load order (root first); the manifest records the totals.
// Generation is deterministic in cfg.
func GenerateModules(cfg ModuleConfig) ([]File, Manifest) {
	cfg = cfg.normalize()
	mg := &modGen{
		cfg: cfg,
		g:   &gen{rng: rand.New(rand.NewSource(cfg.Seed)), cfg: Config{AllowFloats: cfg.AllowFloats}},
	}
	files := mg.build()
	names := make([]string, len(files))
	for i, f := range files {
		names[i] = f.Name
	}
	return files, Manifest{
		Name:    fmt.Sprintf("corpus%d", cfg.Seed),
		Seed:    cfg.Seed,
		Procs:   cfg.Modules*cfg.ProcsPerModule + 1,
		Globals: cfg.Globals + cfg.Modules*cfg.BlockData,
		Files:   names,
	}
}

// WriteCorpus writes the files plus their manifest into dir, creating
// it as needed.
func WriteCorpus(dir string, files []File, m Manifest) error {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return err
	}
	for _, f := range files {
		if err := os.WriteFile(filepath.Join(dir, f.Name), []byte(f.Src), 0o666); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, ManifestName), append(data, '\n'), 0o666)
}

// Flatten joins a corpus into one single-file program: the program
// header, then every global in file order, then every procedure in file
// order — the declaration order merging the files gives, so both load
// to the same program.
func Flatten(files []File) string {
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

// ReadManifest reads a corpus directory's manifest. The error wraps
// os.ErrNotExist when the directory has no manifest.
func ReadManifest(dir string) (Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return Manifest{}, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, fmt.Errorf("%s: %w", filepath.Join(dir, ManifestName), err)
	}
	return m, nil
}

type modGen struct {
	cfg     ModuleConfig
	g       *gen // literal/expression machinery shared with Generate
	globals []genVar
}

func (mg *modGen) build() []File {
	files := make([]File, 0, mg.cfg.Modules+1)
	files = append(files, File{Name: "main.mf", Src: mg.rootFile()})
	for k := 0; k < mg.cfg.Modules; k++ {
		files = append(files, File{Name: fmt.Sprintf("m%04d.mf", k), Src: mg.moduleFile(k)})
	}
	return files
}

func (mg *modGen) procName(module, idx int) string {
	return fmt.Sprintf("m%dp%d", module, idx)
}

// ringRC is the recursion budget main hands each module's ring: enough
// laps that the wrap-around back edge executes and the hub runs more
// than once.
func (mg *modGen) ringRC() int { return mg.cfg.SCCSize + 2 }

func (mg *modGen) rootFile() string {
	var b strings.Builder
	fmt.Fprintf(&b, "program corpus%d\n\n", mg.cfg.Seed)
	for i := 0; i < mg.cfg.Globals; i++ {
		t := mg.g.typ()
		v := genVar{name: fmt.Sprintf("g%d", i), typ: t}
		mg.globals = append(mg.globals, v)
		fmt.Fprintf(&b, "global %s %s = %s\n", v.name, t, mg.g.lit(t))
	}
	b.WriteString("\nproc main() {\n")
	if len(mg.globals) > 0 {
		names := make([]string, len(mg.globals))
		for i, v := range mg.globals {
			names[i] = v.name
		}
		fmt.Fprintf(&b, "  use %s\n", strings.Join(names, ", "))
	}
	b.WriteString("  var l0 int = 1\n")
	// Wide fan-out: one entry call per module, constant arguments so
	// the propagation has material at every module head.
	for k := 0; k < mg.cfg.Modules; k++ {
		if mg.cfg.SCCSize > 0 {
			fmt.Fprintf(&b, "  call %s(%d, %d)\n", mg.procName(k, 0), mg.ringRC(), mg.g.pick(50))
		} else {
			fmt.Fprintf(&b, "  call %s(%d, %s)\n", mg.procName(k, 0), mg.g.pick(40), mg.litForChainY(k, 0))
		}
	}
	b.WriteString("  print l0\n}\n")
	return b.String()
}

func (mg *modGen) moduleFile(k int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "module m%d\n\n", k)
	// The module's block-data section: initialised globals, visible
	// corpus-wide once the units merge.
	blockData := make([]genVar, 0, mg.cfg.BlockData)
	for i := 0; i < mg.cfg.BlockData; i++ {
		t := mg.g.typ()
		v := genVar{name: fmt.Sprintf("b%dx%d", k, i), typ: t}
		blockData = append(blockData, v)
		fmt.Fprintf(&b, "global %s %s = %s\n", v.name, t, mg.g.lit(t))
	}
	b.WriteString("\n")
	n := mg.cfg.ProcsPerModule
	s := mg.cfg.SCCSize
	for i := 0; i < n; i++ {
		mg.emitModProc(&b, k, i, n, s, blockData)
	}
	return b.String()
}

// emitModProc writes one procedure of module k. Procedures 0..s-1 are
// the recursion ring (signature: rc int, x int), procedure s (or 0
// when there is no ring) is the hub, and the rest chain forward.
func (mg *modGen) emitModProc(b *strings.Builder, k, i, n, s int, blockData []genVar) {
	g := mg.g
	ring := i < s
	var params []genVar
	if ring {
		params = []genVar{{name: "rc", typ: ast.TypeInt}, {name: "x", typ: ast.TypeInt}}
	} else {
		params = []genVar{{name: "x", typ: ast.TypeInt}, {name: "y", typ: mg.chainYType(k, i)}}
	}
	sc := &scope{usedGlob: make(map[string]bool)}
	if ring {
		sc.vars = append(sc.vars, params[1]) // rc stays monotone
	} else {
		sc.vars = append(sc.vars, params...)
	}
	// A deterministic-random handful of globals: some program-wide,
	// some from this module's block data.
	var used []string
	for _, gv := range mg.globals {
		if g.pick(4) == 0 {
			used = append(used, gv.name)
			sc.vars = append(sc.vars, gv)
		}
	}
	for _, gv := range blockData {
		if g.pick(4) == 0 {
			used = append(used, gv.name)
			sc.vars = append(sc.vars, gv)
		}
	}

	var body strings.Builder
	nlocals := 1 + g.pick(2)
	for j := 0; j < nlocals; j++ {
		t := g.typ()
		v := genVar{name: fmt.Sprintf("l%d", j), typ: t}
		sc.vars = append(sc.vars, v)
		fmt.Fprintf(&body, "  var %s %s = %s\n", v.name, t, g.lit(t))
	}
	nstmts := 1 + g.pick(mg.cfg.MaxStmts)
	for j := 0; j < nstmts; j++ {
		mg.filler(&body, sc, 1)
	}

	switch {
	case ring && i < s-1:
		// Forward around the ring, same counter.
		fmt.Fprintf(&body, "  call %s(rc, %s)\n", mg.procName(k, i+1), g.expr(sc, ast.TypeInt, 1))
	case ring:
		// The wrap: the module's one call-graph back edge, counter
		// guarded so the corpus terminates.
		fmt.Fprintf(&body, "  if rc > 0 {\n    call %s(rc - 1, %s)\n  }\n",
			mg.procName(k, 0), g.expr(sc, ast.TypeInt, 2))
		if s < n {
			fmt.Fprintf(&body, "  call %s(%d, %s)\n", mg.procName(k, s), g.pick(30), mg.litForChainY(k, s))
		}
	default:
		if i == s && k+1 < mg.cfg.Modules && mg.cfg.FanOut > 0 && n > s+1 {
			// The hub: fan out into the next module's chain (never its
			// ring, so cross-module execution counts stay linear).
			for f := 0; f < mg.cfg.FanOut; f++ {
				j := s + 1 + g.pick(n-s-1)
				fmt.Fprintf(&body, "  call %s(%d, %s)\n",
					mg.procName(k+1, j), g.pick(40), mg.litForChainY(k+1, j))
			}
		}
		if i+1 < n {
			arg := g.expr(sc, ast.TypeInt, 1)
			if g.pick(2) == 0 {
				arg = fmt.Sprintf("%d", g.pick(25)) // constant argument: ICP material
			}
			fmt.Fprintf(&body, "  call %s(%s, %s)\n", mg.procName(k, i+1), arg, mg.litForChainY(k, i+1))
		}
	}
	for _, a := range params {
		fmt.Fprintf(&body, "  print %s\n", a.name)
	}

	fmt.Fprintf(b, "proc %s(", mg.procName(k, i))
	for j, a := range params {
		if j > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(b, "%s %s", a.name, a.typ)
	}
	b.WriteString(") {\n")
	if len(used) > 0 {
		fmt.Fprintf(b, "  use %s\n", strings.Join(used, ", "))
	}
	b.WriteString(body.String())
	b.WriteString("}\n\n")
}

// chainYType returns the (deterministic) type of the second formal of
// chain procedure (module, idx). Callers need it to build a
// well-typed argument without having emitted the callee yet — the
// generator derives it from the corpus seed and the callee's identity
// rather than generation order.
func (mg *modGen) chainYType(module, idx int) ast.Type {
	h := mg.cfg.Seed + int64(module)*1000003 + int64(idx)*7919
	if mg.cfg.AllowFloats && h%4 == 0 {
		return ast.TypeReal
	}
	if h%5 == 1 {
		return ast.TypeBool
	}
	return ast.TypeInt
}

func (mg *modGen) litForChainY(module, idx int) string {
	return mg.g.lit(mg.chainYType(module, idx))
}

// filler emits one side-effecting statement that cannot call.
func (mg *modGen) filler(b *strings.Builder, sc *scope, depth int) {
	g := mg.g
	ind := strings.Repeat("  ", depth)
	switch c := g.pick(8); {
	case c < 4:
		v := sc.vars[g.pick(len(sc.vars))]
		fmt.Fprintf(b, "%s%s = %s\n", ind, v.name, g.expr(sc, v.typ, depth))
	case c < 5:
		v := sc.vars[g.pick(len(sc.vars))]
		fmt.Fprintf(b, "%sread %s\n", ind, v.name)
	case c < 6 && depth < 3:
		fmt.Fprintf(b, "%sif %s {\n", ind, g.expr(sc, ast.TypeBool, depth))
		mg.filler(b, sc, depth+1)
		fmt.Fprintf(b, "%s}\n", ind)
	case c < 7 && depth < 3:
		g.loopCounter++
		lv := fmt.Sprintf("lv%d", g.loopCounter)
		fmt.Fprintf(b, "%svar %s int\n", ind, lv)
		fmt.Fprintf(b, "%sfor %s = 1, %d {\n", ind, lv, 1+g.pick(4))
		mg.filler(b, sc, depth+1)
		fmt.Fprintf(b, "%s}\n", ind)
	default:
		v := sc.vars[g.pick(len(sc.vars))]
		fmt.Fprintf(b, "%sprint %s\n", ind, v.name)
	}
}
