package incr

import (
	"sync"
	"sync/atomic"

	"fsicp/internal/resilience"
)

// StoreStats is the cumulative counter set of a summary store. A
// memory layer fills Hits/Misses; a persistent layer fills the Disk*
// and maintenance counters. Tiered stores sum their layers, which is
// well-defined because the field sets are disjoint.
type StoreStats struct {
	// Hits and Misses count in-memory (L1) lookups.
	Hits, Misses int64
	// DiskHits and DiskMisses count persistent (L2) lookups. A lookup
	// that hits L1 never reaches L2, so DiskMisses bounds the cold work.
	DiskHits, DiskMisses int64
	// Writes counts summaries written to the persistent layer.
	Writes int64
	// Evictions counts entries removed by the size-capped eviction
	// policy; Corrupt counts entries dropped because their frame failed
	// validation (bad magic, checksum, version, or key hash).
	Evictions, Corrupt int64
}

// Sub returns the per-run delta s minus an earlier snapshot o.
func (s StoreStats) Sub(o StoreStats) StoreStats {
	return StoreStats{
		Hits:       s.Hits - o.Hits,
		Misses:     s.Misses - o.Misses,
		DiskHits:   s.DiskHits - o.DiskHits,
		DiskMisses: s.DiskMisses - o.DiskMisses,
		Writes:     s.Writes - o.Writes,
		Evictions:  s.Evictions - o.Evictions,
		Corrupt:    s.Corrupt - o.Corrupt,
	}
}

// Add returns the field-wise sum of s and o.
func (s StoreStats) Add(o StoreStats) StoreStats {
	return StoreStats{
		Hits:       s.Hits + o.Hits,
		Misses:     s.Misses + o.Misses,
		DiskHits:   s.DiskHits + o.DiskHits,
		DiskMisses: s.DiskMisses + o.DiskMisses,
		Writes:     s.Writes + o.Writes,
		Evictions:  s.Evictions + o.Evictions,
		Corrupt:    s.Corrupt + o.Corrupt,
	}
}

// Empty reports whether every counter is zero.
func (s StoreStats) Empty() bool { return s == StoreStats{} }

// Store is one layer of the summary storage hierarchy. Keys are the
// engine's fully qualified value-cache keys (config key, program key,
// pass, procedure name, procedure key, entry-environment digest), so
// an entry is valid wherever its key matches — layers never need to
// understand key structure. Implementations must be safe for
// concurrent use by the analysis wavefront.
//
// A Store is a cache, not a database: Get may miss for any reason
// (never stored, evicted, corrupt) and the caller always recomputes.
// Put must never fail visibly; a layer that cannot persist an entry
// drops it.
type Store interface {
	// Get returns the summary stored under key, if present and valid.
	Get(key string) (*ProcSummary, bool)
	// Put stores a summary under key. Degraded summaries are never
	// stored (the engine filters them, and layers may re-check).
	Put(key string, s *ProcSummary)
	// EndRun marks a committed run boundary: the ageing/generation
	// hook. The memory layer rotates generations here; the disk layer
	// advances its generation stamp.
	EndRun()
	// Reset discards state invalidated by a ProgramKey change. Layers
	// whose entries are fully qualified by their keys (the disk store)
	// may treat this as a no-op and rely on eviction instead.
	Reset()
	// Stats returns the cumulative counters for this layer.
	Stats() StoreStats
}

// MemStore is the in-memory L1: a two-generation (LRU-ish) map.
// Entries touched since the last rotation survive it, the rest are
// dropped a generation later. Rotation happens only when the live
// generation has grown past the limit, so memory stays bounded across
// long edit sessions without the working set being evicted between
// consecutive runs.
type MemStore struct {
	mu           sync.Mutex
	cur, old     map[string]*ProcSummary
	limit        int
	hits, misses atomic.Int64
}

// NewMemStore returns an empty memory store. limit <= 0 selects
// DefaultCacheLimit.
func NewMemStore(limit int) *MemStore {
	if limit <= 0 {
		limit = DefaultCacheLimit
	}
	return &MemStore{
		cur:   map[string]*ProcSummary{},
		old:   map[string]*ProcSummary{},
		limit: limit,
	}
}

// SetLimit adjusts the rotation threshold; n <= 0 restores the default.
func (m *MemStore) SetLimit(n int) {
	if n <= 0 {
		n = DefaultCacheLimit
	}
	m.mu.Lock()
	m.limit = n
	m.mu.Unlock()
}

// Get implements Store, promoting old-generation hits.
func (m *MemStore) Get(key string) (*ProcSummary, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s, ok := m.cur[key]; ok {
		m.hits.Add(1)
		return s, true
	}
	if s, ok := m.old[key]; ok {
		m.cur[key] = s // promote
		m.hits.Add(1)
		return s, true
	}
	m.misses.Add(1)
	return nil, false
}

// Put implements Store.
func (m *MemStore) Put(key string, s *ProcSummary) {
	if s == nil || s.Degraded {
		return
	}
	m.mu.Lock()
	m.cur[key] = s
	m.mu.Unlock()
}

// EndRun rotates the generations when the live one has outgrown the
// limit.
func (m *MemStore) EndRun() {
	m.mu.Lock()
	if len(m.cur) >= m.limit {
		m.old = m.cur
		m.cur = map[string]*ProcSummary{}
	}
	m.mu.Unlock()
}

// Reset drops both generations.
func (m *MemStore) Reset() {
	m.mu.Lock()
	m.cur = map[string]*ProcSummary{}
	m.old = map[string]*ProcSummary{}
	m.mu.Unlock()
}

// Stats implements Store.
func (m *MemStore) Stats() StoreStats {
	return StoreStats{Hits: m.hits.Load(), Misses: m.misses.Load()}
}

// Tiered composes two layers: L1 answers first, L2 backs it. L2 hits
// are promoted into L1; writes go through to both.
type Tiered struct {
	L1, L2 Store
}

// NewTiered returns the layered store over l1 (fast, checked first) and
// l2 (persistent, checked on l1 miss).
func NewTiered(l1, l2 Store) *Tiered { return &Tiered{L1: l1, L2: l2} }

// Get implements Store.
func (t *Tiered) Get(key string) (*ProcSummary, bool) {
	if s, ok := t.L1.Get(key); ok {
		return s, true
	}
	s, ok := t.L2.Get(key)
	if ok {
		t.L1.Put(key, s) // promote so the run's re-lookups stay in memory
	}
	return s, ok
}

// Put implements Store (write-through).
func (t *Tiered) Put(key string, s *ProcSummary) {
	t.L1.Put(key, s)
	t.L2.Put(key, s)
}

// EndRun implements Store.
func (t *Tiered) EndRun() {
	t.L1.EndRun()
	t.L2.EndRun()
}

// Reset implements Store.
func (t *Tiered) Reset() {
	t.L1.Reset()
	t.L2.Reset()
}

// Stats sums the layers (their field sets are disjoint).
func (t *Tiered) Stats() StoreStats { return t.L1.Stats().Add(t.L2.Stats()) }

// SetLimit forwards the L1 rotation threshold when the layer supports
// it.
func (t *Tiered) SetLimit(n int) {
	if sl, ok := t.L1.(interface{ SetLimit(int) }); ok {
		sl.SetLimit(n)
	}
}

// Degradations forwards the corruption records of layers that keep them
// (the disk store records one per entry dropped as corrupt).
func (t *Tiered) Degradations() []resilience.Degradation {
	var out []resilience.Degradation
	for _, l := range []Store{t.L1, t.L2} {
		if d, ok := l.(interface {
			Degradations() []resilience.Degradation
		}); ok {
			out = append(out, d.Degradations()...)
		}
	}
	resilience.Sort(out)
	return out
}
