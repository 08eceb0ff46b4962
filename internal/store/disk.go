// Package store is the persistent (L2) layer of the incremental
// engine's summary storage hierarchy: a content-addressed on-disk
// cache of per-procedure summaries encoded with internal/codec.
//
// Entries are keyed by the engine's fully qualified value-cache key —
// (config key, program key, pass, procedure name, procedure key,
// entry-environment digest) — hashed to a file path, so a
// cold process whose program and configuration match an earlier run
// finds every summary already on disk and skips the fixpoint work.
//
// The store is strictly a cache with cache semantics:
//
//   - Reads validate the codec frame (magic, version, checksum) and the
//     embedded key hash. Anything invalid — truncated, bit-flipped,
//     version-skewed, mis-keyed — is deleted, counted, recorded as a
//     resilience.Degradation with ReasonCacheCorrupt, and reported as a
//     miss. The caller recomputes; results are byte-identical to a run
//     with no cache at all. Never unsound, never fatal.
//   - Writes are atomic (temp file + rename), so a crash mid-write
//     leaves either the old entry or none.
//   - A size cap (Options.MaxBytes) triggers eviction of the entries
//     with the oldest generation stamps; every committed run advances
//     the generation, so the stamp is a cheap recency clock that
//     survives process restarts.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"fsicp/internal/codec"
	"fsicp/internal/incr"
	"fsicp/internal/resilience"
)

// DefaultMaxBytes is the eviction threshold when Options.MaxBytes is
// zero: generous for summaries (a few hundred bytes each) while
// keeping an unattended cache directory bounded.
const DefaultMaxBytes = 256 << 20

// maxDegradations bounds the kept corruption records; the Corrupt
// counter is exact regardless.
const maxDegradations = 64

// Options configures a disk store.
type Options struct {
	// MaxBytes caps the total size of stored entries; 0 means
	// DefaultMaxBytes, negative disables eviction.
	MaxBytes int64
}

// Disk is an on-disk summary store implementing incr.Store. It is safe
// for concurrent use; one *Disk should be shared by every engine using
// the same directory within a process.
type Disk struct {
	dir string
	max int64

	mu      sync.Mutex // guards size/gen bookkeeping, eviction, degr
	size    int64
	gen     uint64
	touched map[string]uint64 // file name → last-hit generation (this process)
	degr    []resilience.Degradation

	hits, misses, writes, evictions, corrupt atomic.Int64
}

var _ incr.Store = (*Disk)(nil)

// Open opens (creating if needed) the store rooted at dir, advancing
// its generation counter. The scan that sizes an existing cache is
// proportional to the number of entries, not their bytes.
func Open(dir string, opts Options) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	d := &Disk{
		dir:     dir,
		max:     opts.MaxBytes,
		touched: map[string]uint64{},
	}
	if d.max == 0 {
		d.max = DefaultMaxBytes
	}
	d.gen = d.readGen() + 1
	d.writeGen()
	filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() || filepath.Ext(path) != entryExt {
			return nil
		}
		if info, err := e.Info(); err == nil {
			d.size += info.Size()
		}
		return nil
	})
	return d, nil
}

const (
	entryExt = ".sum"
	genFile  = "GENERATION"
)

func (d *Disk) genPath() string { return filepath.Join(d.dir, genFile) }

func (d *Disk) readGen() uint64 {
	data, err := os.ReadFile(d.genPath())
	if err != nil {
		return 0
	}
	g, err := strconv.ParseUint(strings.TrimSpace(string(data)), 10, 64)
	if err != nil {
		return 0
	}
	return g
}

// writeGen persists the generation counter (best effort: a store that
// cannot write it still works, with weaker eviction ordering).
//
// The stamp is shared cross-process state: two daemons or CI jobs
// pointed at one cache directory each hold their own *Disk over the
// same GENERATION file. Plain WriteFile would let their truncate+write
// sequences interleave into a torn stamp ("10" racing "9" can leave
// "90", jumping the recency clock by an order of magnitude and
// scrambling eviction order for every existing entry). Two rules make
// the stamp safe without a lock file:
//
//   - atomic replace: the value is written to a temp file and renamed
//     over GENERATION, so a reader (or a crashed writer) always sees
//     one complete, parseable stamp — never an interleaving;
//   - monotonic merge: the written value is the max of ours and the
//     current on-disk one, so the shared clock never moves backwards
//     even when another process has advanced past us. Two processes
//     may stamp the same value — eviction ordering needs monotonicity,
//     not uniqueness.
func (d *Disk) writeGen() {
	if disk := d.readGen(); disk > d.gen {
		d.gen = disk
	}
	tmp, err := os.CreateTemp(d.dir, ".gen-*")
	if err != nil {
		return
	}
	_, werr := tmp.WriteString(strconv.FormatUint(d.gen, 10))
	cerr := tmp.Close()
	if werr != nil || cerr != nil || os.Rename(tmp.Name(), d.genPath()) != nil {
		os.Remove(tmp.Name())
	}
}

// path maps a store key to its entry file: two hex digits of the
// SHA-256 shard the directory, the rest names the file.
func (d *Disk) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	h := hex.EncodeToString(sum[:])
	return filepath.Join(d.dir, h[:2], h[2:]+entryExt)
}

// Get implements incr.Store. Invalid entries are dropped and counted;
// the caller sees only a miss.
func (d *Disk) Get(key string) (*incr.ProcSummary, bool) {
	path := d.path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		d.misses.Add(1)
		return nil, false
	}
	meta, sum, err := codec.DecodeSummary(data)
	if err == nil && meta.KeyHash != codec.HashKey(key) {
		err = fmt.Errorf("%w: key hash mismatch", codec.ErrCorrupt)
	}
	if err != nil {
		d.drop(path, int64(len(data)), err)
		d.misses.Add(1)
		return nil, false
	}
	d.hits.Add(1)
	d.mu.Lock()
	d.touched[filepath.Base(path)] = d.gen
	d.mu.Unlock()
	return sum, true
}

// drop removes an invalid entry and records the corruption.
func (d *Disk) drop(path string, size int64, err error) {
	d.corrupt.Add(1)
	d.mu.Lock()
	if os.Remove(path) == nil {
		d.size -= size
	}
	if len(d.degr) < maxDegradations {
		d.degr = append(d.degr, resilience.Degradation{
			Pass:   "store",
			Reason: resilience.ReasonCacheCorrupt,
			Detail: fmt.Sprintf("%s: %v", filepath.Base(path), err),
		})
	}
	d.mu.Unlock()
}

// Put implements incr.Store: an atomic write-through, then eviction if
// the cap is exceeded. All failures are silent drops — the entry just
// will not be there next time.
func (d *Disk) Put(key string, s *incr.ProcSummary) {
	if s == nil || s.Degraded {
		return
	}
	d.mu.Lock()
	gen := d.gen
	d.mu.Unlock()
	data := codec.EncodeSummary(codec.Meta{KeyHash: codec.HashKey(key), Gen: gen}, s)
	path := d.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return
	}
	var old int64
	if info, err := os.Stat(path); err == nil {
		old = info.Size()
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return
	}
	d.writes.Add(1)
	d.mu.Lock()
	d.size += int64(len(data)) - old
	if d.max > 0 && d.size > d.max {
		d.evictLocked()
	}
	d.mu.Unlock()
}

// evictLocked removes the oldest entries (lowest generation stamp,
// then modification time, then name — a total order, so eviction is
// deterministic for a given cache state) until the store is back under
// 3/4 of the cap. Called with d.mu held.
func (d *Disk) evictLocked() {
	type entry struct {
		path  string
		size  int64
		gen   uint64
		mtime int64
	}
	var entries []entry
	filepath.WalkDir(d.dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() || filepath.Ext(path) != entryExt {
			return nil
		}
		info, err := e.Info()
		if err != nil {
			return nil
		}
		gen := uint64(0)
		if data, err := os.ReadFile(path); err == nil {
			if meta, err := codec.PeekMeta(data); err == nil {
				gen = meta.Gen
			}
		}
		if tg, ok := d.touched[filepath.Base(path)]; ok && tg > gen {
			gen = tg
		}
		entries = append(entries, entry{path, info.Size(), gen, info.ModTime().UnixNano()})
		return nil
	})
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].gen != entries[j].gen {
			return entries[i].gen < entries[j].gen
		}
		if entries[i].mtime != entries[j].mtime {
			return entries[i].mtime < entries[j].mtime
		}
		return entries[i].path < entries[j].path
	})
	target := d.max - d.max/4
	for _, e := range entries {
		if d.size <= target {
			break
		}
		if os.Remove(e.path) == nil {
			d.size -= e.size
			d.evictions.Add(1)
			delete(d.touched, filepath.Base(e.path))
		}
	}
}

// EndRun advances the generation stamp: entries written or hit after
// this boundary age as a younger cohort than everything before it.
func (d *Disk) EndRun() {
	d.mu.Lock()
	d.gen++
	d.writeGen()
	d.mu.Unlock()
}

// Reset implements incr.Store as a no-op: every entry is fully
// qualified by its key (config and program fingerprints included), so
// entries for other programs are merely unused, and eviction ages them
// out. Deleting them eagerly would defeat the point of a persistent
// cache under edit/undo alternation.
func (d *Disk) Reset() {}

// Stats implements incr.Store.
func (d *Disk) Stats() incr.StoreStats {
	return incr.StoreStats{
		DiskHits:   d.hits.Load(),
		DiskMisses: d.misses.Load(),
		Writes:     d.writes.Load(),
		Evictions:  d.evictions.Load(),
		Corrupt:    d.corrupt.Load(),
	}
}

// Degradations returns the recorded corruption events (capped at
// maxDegradations; Stats().Corrupt is the exact count), sorted for
// deterministic presentation. They are observability, not analysis
// results: a corrupt entry costs recomputation, never precision, so
// these records never join an analysis Result's degradation list.
func (d *Disk) Degradations() []resilience.Degradation {
	d.mu.Lock()
	out := append([]resilience.Degradation(nil), d.degr...)
	d.mu.Unlock()
	// resilience.Sort keys on proc/pass/reason, which are identical for
	// every store record; the detail (file name + error) is the
	// distinguishing field here.
	sort.Slice(out, func(i, j int) bool { return out[i].Detail < out[j].Detail })
	return out
}

// Size returns the current tracked byte size of stored entries.
func (d *Disk) Size() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.size
}

// Generation returns the store's current generation stamp.
func (d *Disk) Generation() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.gen
}
