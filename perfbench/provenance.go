package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"

	fsicp "fsicp"
	"fsicp/internal/progen"
)

// provenance is recorded with every result: the machine, the code and
// seed, and the shape of the input measured.
type provenance struct {
	Workload    string     `json:"workload"`
	Seed        int64      `json:"seed"`
	Commit      string     `json:"commit"`
	TreeDigest  string     `json:"treeDigest"`
	NumCPU      int        `json:"numCPU"`
	GOMAXPROCS  int        `json:"gomaxprocs"`
	GOARCH      string     `json:"goarch"`
	GoVersion   string     `json:"goVersion"`
	Kernel      string     `json:"kernel"`
	MemTotalMiB int        `json:"memTotalMiB"`
	GOGC        string     `json:"gogc,omitempty"`
	GOMEMLIMIT  string     `json:"gomemlimit,omitempty"`
	Input       inputShape `json:"input"`
}

// inputShape describes one workload input.
type inputShape struct {
	Procedures int `json:"procedures"`
	Reachable  int `json:"reachable"`
	Globals    int `json:"globals"`
	Files      int `json:"files"`
	Bytes      int `json:"bytes"`
	BackEdges  int `json:"backEdges"`
}

// shapeOf measures a loaded program generated as files.
func shapeOf(prog *fsicp.Program, files []progen.File) inputShape {
	back, _ := prog.BackEdges()
	s := inputShape{Reachable: len(prog.Procedures()), Files: len(files), Bytes: totalBytes(files), BackEdges: back}
	for _, f := range files {
		for _, line := range strings.Split(f.Src, "\n") {
			switch {
			case strings.HasPrefix(line, "proc "):
				s.Procedures++
			case strings.HasPrefix(line, "global "):
				s.Globals++
			}
		}
	}
	return s
}

func machineProvenance(root, workload string, seed int64) provenance {
	p := provenance{
		Workload:   workload,
		Seed:       seed,
		Commit:     gitCommit(root),
		TreeDigest: treeDigest(root),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOARCH:     runtime.GOARCH,
		GoVersion:  runtime.Version(),
		GOGC:       os.Getenv("GOGC"),
		GOMEMLIMIT: os.Getenv("GOMEMLIMIT"),
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		p.Kernel = strings.TrimSpace(string(b))
	}
	if f, err := os.Open("/proc/meminfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if fields := strings.Fields(sc.Text()); len(fields) >= 2 && fields[0] == "MemTotal:" {
				kib, _ := strconv.Atoi(fields[1])
				p.MemTotalMiB = kib / 1024
			}
		}
		f.Close()
	}
	return p
}

// gitCommit names the checked-out commit, or "none" when root is not
// a git work tree (an exported checkout), where treeDigest identifies
// the code instead.
func gitCommit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// treeDigest hashes every Go source and module file under root,
// skipping hidden and build directories, in path order.
func treeDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			paths = append(paths, path)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		h.Write([]byte(rel + "\x00"))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
