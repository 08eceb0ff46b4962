package incr

import (
	"sync"
	"sync/atomic"

	"fsicp/internal/resilience"
)

// Engine owns the cross-run state: the value store (one or more
// layers, see Store) and the snapshot of the previous committed run.
// One Engine serves one evolving program (a Session); it is safe for
// the concurrent wavefront of a single run to hit it from many
// goroutines, but runs themselves must be issued one at a time
// (Begin .. Commit pairs must not overlap).
type Engine struct {
	mu    sync.Mutex
	store Store
	snap  *Snapshot
}

// DefaultCacheLimit is the in-memory value-cache generation size above
// which a Commit ages out untouched entries (see SetCacheLimit).
const DefaultCacheLimit = 2048

// NewEngine returns an empty engine backed by the in-memory store
// only.
func NewEngine() *Engine {
	return NewEngineWithStore(NewMemStore(0))
}

// NewEngineWithStore returns an empty engine over an explicit storage
// hierarchy (typically NewTiered(NewMemStore(0), disk)).
func NewEngineWithStore(s Store) *Engine {
	return &Engine{store: s}
}

// SetCacheLimit bounds the in-memory value cache: when the live
// generation holds at least n entries at Commit, entries untouched
// since the previous ageing are dropped (two-generation collection).
// Ageing on every Commit would evict the working set under edit/undo
// alternation, so collection is deferred until the cache has actually
// grown. n <= 0 restores the default. Engines over stores without an
// adjustable memory layer ignore the call.
func (e *Engine) SetCacheLimit(n int) {
	if sl, ok := e.store.(interface{ SetLimit(int) }); ok {
		sl.SetLimit(n)
	}
}

// Stats returns the store's cumulative counters. Callers wanting
// per-run numbers snapshot before the run and Sub after.
func (e *Engine) Stats() StoreStats { return e.store.Stats() }

// Degradations returns the corruption records kept by persistent store
// layers (nil for memory-only engines). They are cumulative for the
// engine's lifetime and deliberately not part of any analysis result:
// a corrupt cache entry costs recomputation, never precision.
func (e *Engine) Degradations() []resilience.Degradation {
	if d, ok := e.store.(interface {
		Degradations() []resilience.Degradation
	}); ok {
		return d.Degradations()
	}
	return nil
}

// Snapshot is the committed outcome of one run: the keys under which
// it was produced and the per-procedure states a later run may reuse.
type Snapshot struct {
	// ConfigKey identifies the analysis configuration (method, float
	// handling, return-constant options). Results are never shared
	// across configurations.
	ConfigKey string
	// ProgramKey is the globals-section fingerprint
	// (GlobalsFingerprint); summaries index globals by declaration
	// slot, so nothing survives a change to it.
	ProgramKey string
	// Procs maps procedure name to its committed state.
	Procs map[string]ProcState
}

// ProcInput names one reachable procedure and its key, in call-graph
// position order.
type ProcInput struct {
	Name string
	FP   string
}

// RunInputs is everything Begin needs to look up previous summaries.
type RunInputs struct {
	ConfigKey  string
	ProgramKey string
	Procs      []ProcInput
}

// Plan is the per-run view handed to the analysis: each procedure's
// previous summary under the same key, and the value-cache interface.
type Plan struct {
	eng    *Engine
	prefix string

	// Prev[i] is the summary the previous run committed for Procs[i]
	// under the same configuration, program and procedure key, or nil.
	// Whether it may be reused is ProcSummary.Stands' decision.
	Prev []*ProcSummary

	hits, misses atomic.Int64
}

// Begin opens a run: it looks up, for every procedure, the previous
// summary committed under the same configuration key, program key and
// procedure key. It never returns nil; with no usable snapshot every
// Prev is nil.
func (e *Engine) Begin(in RunInputs) *Plan {
	e.mu.Lock()
	defer e.mu.Unlock()
	p := &Plan{
		eng:    e,
		prefix: in.ConfigKey + "\x00" + in.ProgramKey + "\x00",
		Prev:   make([]*ProcSummary, len(in.Procs)),
	}
	snap := e.snap
	if snap != nil && snap.ProgramKey != in.ProgramKey {
		// The global index space moved under the cached summaries.
		// (Layers whose keys fully qualify the program may no-op this.)
		e.store.Reset()
	}
	if snap == nil || snap.ConfigKey != in.ConfigKey || snap.ProgramKey != in.ProgramKey {
		return p
	}
	for i, pi := range in.Procs {
		if st, ok := snap.Procs[pi.Name]; ok && st.FP == pi.FP {
			p.Prev[i] = st.Summary
		}
	}
	return p
}

// Lookup consults the value cache for a (pass, procedure, fingerprint,
// input-key) tuple and counts the hit or miss.
func (p *Plan) Lookup(pass, name, fp, inputKey string) (*ProcSummary, bool) {
	s, ok := p.eng.store.Get(p.key(pass, name, fp, inputKey))
	if ok {
		p.hits.Add(1)
	} else {
		p.misses.Add(1)
	}
	return s, ok
}

// Store records a freshly computed summary in the value cache.
// Degraded summaries are never stored: they are not the analysis of
// the key, only a sound placeholder for this run.
func (p *Plan) Store(pass, name, fp, inputKey string, s *ProcSummary) {
	if s == nil || s.Degraded {
		return
	}
	p.eng.store.Put(p.key(pass, name, fp, inputKey), s)
}

func (p *Plan) key(pass, name, fp, inputKey string) string {
	return p.prefix + pass + "\x00" + name + "\x00" + fp + "\x00" + inputKey
}

// Hits and Misses report the value-cache counters for this run.
func (p *Plan) Hits() int   { return int(p.hits.Load()) }
func (p *Plan) Misses() int { return int(p.misses.Load()) }

// Commit installs the run's snapshot, where the next Begin looks up
// previous summaries, and marks the run boundary on the store (the
// memory layer ages its generations, the disk layer advances its
// generation stamp).
func (p *Plan) Commit(snap *Snapshot) {
	p.eng.mu.Lock()
	defer p.eng.mu.Unlock()
	p.eng.snap = snap
	p.eng.store.EndRun()
}
