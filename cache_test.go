// Tests for the persistent summary store behind Config.CacheDir: the
// cache must change analysis time only. Every report surface —
// constants, call sites, metrics, annotated listing, degradations —
// must be byte-identical whether the cache is absent, cold, warm, or
// actively corrupted underneath the run.
package fsicp_test

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
	"time"

	fsicp "fsicp"
	"fsicp/internal/faultinject"
)

// cacheSnapshot extends fingerprint with the remaining report-surface
// fields the JSON report exposes: the back-edge fallback count and the
// degradation list. Store corruption must never appear here.
func cacheSnapshot(a *fsicp.Analysis) string {
	var b strings.Builder
	b.WriteString(fingerprint(a))
	fmt.Fprintf(&b, "backedges %d\n", a.UsedFlowInsensitiveFallback())
	for _, d := range a.Degradations() {
		fmt.Fprintf(&b, "degraded %s\n", d)
	}
	return b.String()
}

// corruptCacheDir damages every stored summary in dir and reports how
// many files it hit.
func corruptCacheDir(t *testing.T, dir string, kind faultinject.FileCorruption) int {
	t.Helper()
	n := 0
	err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() || filepath.Ext(path) != ".sum" {
			return err
		}
		n++
		return faultinject.CorruptFile(path, kind, uint64(n))
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestWarmDiskCacheDeterminism is the tentpole soundness gate for the
// layered store: for each flow-sensitive method it runs the largest
// synthetic SPEC program four ways — no cache, cold disk cache, warm
// disk cache (fresh Program, so only the disk layer can answer), and a
// warm cache with every entry corrupted — and requires byte-identical
// snapshots throughout. The cache counters are the only permitted
// difference: writes on the cold run, disk hits on the warm run,
// corruption drops on the damaged run.
func TestWarmDiskCacheDeterminism(t *testing.T) {
	for _, method := range []fsicp.Method{fsicp.FlowSensitive, fsicp.FlowSensitiveIterative} {
		t.Run(method.String(), func(t *testing.T) {
			cfg := fsicp.Config{Method: method, PropagateFloats: true}
			want := cacheSnapshot(loadLargest(t).Analyze(cfg))

			dir := t.TempDir()
			cfg.CacheDir = dir

			cold := loadLargest(t).Analyze(cfg)
			if got := cacheSnapshot(cold); got != want {
				t.Fatalf("cold cached run diverged from the uncached run:\n%s", diffHead(got, want))
			}
			if cs := cold.CacheStats(); cs.DiskWrites == 0 {
				t.Fatalf("cold run wrote nothing to the store: %+v", cs)
			}

			// A fresh Program has fresh structural fingerprints but an
			// empty L1, so every hit below is served by the disk layer.
			warm := loadLargest(t).Analyze(cfg)
			if got := cacheSnapshot(warm); got != want {
				t.Fatalf("warm cached run diverged from the uncached run:\n%s", diffHead(got, want))
			}
			if cs := warm.CacheStats(); cs.DiskHits == 0 {
				t.Fatalf("warm run hit nothing on disk: %+v", cs)
			}

			if n := corruptCacheDir(t, dir, faultinject.BitFlip); n == 0 {
				t.Fatal("no cache entries to corrupt")
			}
			hurt := loadLargest(t).Analyze(cfg)
			if got := cacheSnapshot(hurt); got != want {
				t.Fatalf("corrupted-cache run diverged from the uncached run:\n%s", diffHead(got, want))
			}
			if cs := hurt.CacheStats(); cs.Corrupt == 0 {
				t.Fatalf("corruption was not detected: %+v", cs)
			}

			// The store healed itself (corrupt entries were dropped and
			// rewritten), so one more run must be warm again.
			again := loadLargest(t).Analyze(cfg)
			if got := cacheSnapshot(again); got != want {
				t.Fatalf("post-corruption run diverged from the uncached run:\n%s", diffHead(got, want))
			}
			if cs := again.CacheStats(); cs.DiskHits == 0 || cs.Corrupt != 0 {
				t.Fatalf("store did not recover after corruption: %+v", cs)
			}
		})
	}
}

// TestCacheStatsShape pins the facade accessor: no cache directory
// means empty stats, and the Empty predicate tracks every counter.
func TestCacheStatsShape(t *testing.T) {
	a := loadLargest(t).Analyze(fsicp.Config{Method: fsicp.FlowSensitive, PropagateFloats: true})
	if cs := a.CacheStats(); !cs.Empty() {
		t.Fatalf("uncached run reported cache traffic: %+v", cs)
	}
	if (fsicp.CacheStats{MemHits: 1}).Empty() || (fsicp.CacheStats{Corrupt: 1}).Empty() {
		t.Fatal("Empty ignored a nonzero counter")
	}
}

// TestCacheKeyKeepsFaultRatesExact: fault specs whose rates differ
// only past the second decimal inject different faults, so they must
// not share persistent store entries; a repeat of the same spec does.
func TestCacheKeyKeepsFaultRatesExact(t *testing.T) {
	cfg := fsicp.Config{
		Method:          fsicp.FlowSensitive,
		PropagateFloats: true,
		CacheDir:        t.TempDir(),
		Faults:          fsicp.FaultSpec{Seed: 7, LatencyRate: 0.101, Latency: time.Microsecond},
	}
	if cs := loadLargest(t).Analyze(cfg).CacheStats(); cs.DiskWrites == 0 {
		t.Fatalf("cold run wrote nothing to the store: %+v", cs)
	}
	if cs := loadLargest(t).Analyze(cfg).CacheStats(); cs.DiskHits == 0 {
		t.Fatalf("repeat of the same spec hit nothing on disk: %+v", cs)
	}
	cfg.Faults.LatencyRate = 0.104
	if cs := loadLargest(t).Analyze(cfg).CacheStats(); cs.DiskHits != 0 {
		t.Fatalf("latency rates 0.101 and 0.104 shared %d disk entries", cs.DiskHits)
	}
}

// diffHead renders the first diverging line of two snapshots, keeping
// failure output readable on the 120-procedure program.
func diffHead(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n  got:  %s\n  want: %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("lengths differ: got %d lines, want %d", len(g), len(w))
}
