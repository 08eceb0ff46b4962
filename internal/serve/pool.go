package serve

import (
	"sync"

	fsicp "fsicp"
)

// pool is the bounded LRU of warm sessions, one per program name.
//
// Locking is two-level: pool.mu guards the map, the clock, and each
// entry's used stamp; progEntry.mu serializes all analysis work on one
// program (a Session is not safe for concurrent use). pool.mu is never
// held across analysis work, so eviction and lookup stay cheap under
// load.
type pool struct {
	mu      sync.Mutex
	max     int
	clock   int64
	entries map[string]*progEntry
}

// progEntry is one warm program: its incremental session plus the last
// answer served per result key (the /query cache and the delta
// baseline for /update).
type progEntry struct {
	name string
	used int64 // LRU stamp; guarded by pool.mu

	mu   sync.Mutex // serializes session use; never held with pool.mu
	sess *fsicp.Session

	// lastConst and lastQuery are keyed by resultKey (the
	// report-shaping part of the effective configuration), so a
	// degraded chaos request never pollutes the clean configuration's
	// delta baseline or query cache.
	lastConst map[string][]fsicp.Constant
	lastQuery map[string]queryRecord
}

// queryRecord is one cached answer for GET /query: the report, encoded
// as a response's member (encodeReport), plus the version it answers
// for.
type queryRecord struct {
	fpr     string
	version int
	report  []byte
}

func newPool(max int) *pool {
	return &pool{max: max, entries: make(map[string]*progEntry)}
}

// get returns the entry for name, creating it (evicting the least
// recently used entry past the bound) when create is set. The second
// result reports whether the entry already existed.
func (p *pool) get(name string, create bool) (*progEntry, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.clock++
	if e := p.entries[name]; e != nil {
		e.used = p.clock
		return e, true
	}
	if !create {
		return nil, false
	}
	if len(p.entries) >= p.max {
		p.evictLocked()
	}
	e := &progEntry{
		name:      name,
		used:      p.clock,
		lastConst: make(map[string][]fsicp.Constant),
		lastQuery: make(map[string]queryRecord),
	}
	p.entries[name] = e
	return e, false
}

// evictLocked removes the least recently used entry. An in-flight
// request holding the evicted entry's mutex finishes on its private
// pointer; a later request for that program gets a fresh session,
// whose answers are byte-identical anyway (warm == cold is the
// session determinism contract).
func (p *pool) evictLocked() {
	var victim *progEntry
	for _, e := range p.entries {
		if victim == nil || e.used < victim.used {
			victim = e
		}
	}
	if victim != nil {
		delete(p.entries, victim.name)
	}
}

// remove drops name's entry if it is still e — used to undo the
// creation of an entry whose initial load failed, without clobbering a
// replacement another request may have installed since.
func (p *pool) remove(name string, e *progEntry) {
	p.mu.Lock()
	if p.entries[name] == e {
		delete(p.entries, name)
	}
	p.mu.Unlock()
}

func (p *pool) len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.entries)
}
