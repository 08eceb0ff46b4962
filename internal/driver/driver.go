// Package driver is the pass-manager layer of the pipeline: it runs the
// compilation and analysis phases as named passes in the order they
// were added, and collects one PassStats record per pass into a Trace.
//
// The package also provides the wavefront scheduler the flow-sensitive
// ICP methods use to analyse independent procedures concurrently: the
// forward-edge DAG of the program call graph is condensed into
// topological levels (Levels) and every procedure of a level runs on a
// bounded worker pool (Wavefront), with a barrier between levels. The
// paper's traversal invariant — a procedure is analysed only after all
// of its forward-edge callers — is exactly the level order, so the
// schedule is semantics-preserving for any worker count.
package driver

import (
	"context"
	"fmt"
	"runtime/metrics"
	"strings"
	"sync"
	"time"
)

// PassStats records one execution of a named pass.
type PassStats struct {
	Name  string
	Wall  time.Duration
	Procs int    // procedures processed (0 when not applicable)
	Notes string // free-form detail, e.g. "workers=8 levels=4"

	// Cached reports that this run reused previous results instead of
	// recomputing (a load pass of a token-identical Session version, or
	// an analysis pass that reused at least one per-procedure result).
	Cached bool
	// Hits and Misses count procedure-level result-cache lookups
	// performed during the pass (zero when the pass has no cache).
	Hits   int
	Misses int
	// Degraded counts the procedures this pass answered from the
	// flow-insensitive fallback instead of completing flow-sensitively
	// (panic isolation, fuel exhaustion, cancellation).
	Degraded int

	// DiskHits/DiskMisses count persistent-store lookups for passes
	// whose cache is backed by a disk layer; Evicted and Corrupt count
	// entries the store evicted under its size cap or dropped as
	// corrupt during the pass. All zero without a persistent store.
	DiskHits   int
	DiskMisses int
	Evicted    int
	Corrupt    int

	// Shards counts the parallel-for items a sharded pass (Pass.Shards)
	// executed; zero for serial passes. ShardWall holds each shard's
	// wall-clock time, indexed by shard. The manager also appends
	// "shards=N workers=M" to Notes for sharded passes.
	Shards    int
	ShardWall []time.Duration

	// HeapBytes is the heap held by allocated objects when the pass
	// finished (runtime/metrics /memory/classes/heap/objects:bytes, the
	// value runtime.MemStats.HeapAlloc reports), and GCs the collection
	// cycles that completed during it. Trace.Time samples both at every
	// pass boundary: runtime/metrics does not stop the world, so the
	// sampling is always on. Unlike ReadMemStats it does not flush the
	// per-P allocation caches, so HeapBytes trails HeapAlloc by the
	// objects in still-cached spans: a few MiB at most, which shows only
	// on tiny heaps.
	HeapBytes uint64
	GCs       uint32
	// LiveBytes is the heap the last completed mark phase found live
	// when the pass finished (runtime/metrics /gc/heap/live:bytes).
	// HeapBytes also counts garbage not yet swept, so it varies with
	// where the collector's cycle happens to stand; LiveBytes shows what
	// the program retains, as of that collection.
	LiveBytes uint64

	// Levels and Width describe the wavefront schedule of a parallel
	// analysis pass: the topological level count and the widest
	// level's procedure count (the pass's peak available parallelism).
	// Skipped counts the procedure visits delta propagation
	// short-circuited because no input changed since the last visit.
	// All zero for serial or non-wavefront passes.
	Levels  int
	Width   int
	Skipped int
}

// Trace is an ordered, concurrency-safe collection of PassStats
// records. A nil *Trace is valid and discards every record, so callers
// can thread an optional trace without nil checks.
type Trace struct {
	mu  sync.Mutex
	rec []PassStats
}

// NewTrace returns an empty trace.
func NewTrace() *Trace { return &Trace{} }

// Record appends one record. No-op on a nil trace.
func (t *Trace) Record(st PassStats) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.rec = append(t.rec, st)
	t.mu.Unlock()
}

// Time runs f, measuring its wall-clock time and memory, and records
// the result under name. f may fill in Procs and Notes; Name, Wall,
// HeapBytes, LiveBytes and GCs are set by Time. f always runs, even on
// a nil trace, which skips the measurements.
func (t *Trace) Time(name string, f func(st *PassStats)) {
	st := PassStats{Name: name}
	if t == nil {
		f(&st)
		return
	}
	_, _, gcBase := readMem()
	start := time.Now()
	f(&st)
	st.Wall = time.Since(start)
	heap, live, gcs := readMem()
	st.HeapBytes, st.LiveBytes, st.GCs = heap, live, uint32(gcs-gcBase)
	st.Name = name
	t.Record(st)
}

// readMem samples the heap held by allocated objects, the heap live at
// the last completed mark, and the completed GC cycle count through
// runtime/metrics, which does not stop the world.
func readMem() (heap, live, gcs uint64) {
	s := [3]metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/gc/heap/live:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s[:])
	return s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()
}

// Passes returns a copy of the recorded stats in record order.
func (t *Trace) Passes() []PassStats {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]PassStats(nil), t.rec...)
}

// Total returns the summed wall-clock time of every record.
func (t *Trace) Total() time.Duration {
	var sum time.Duration
	for _, st := range t.Passes() {
		sum += st.Wall
	}
	return sum
}

// Table renders the trace as an aligned per-pass timing table. Records
// sharing a name (a pass run repeatedly, e.g. across a suite) are
// aggregated into one row — runs counted, wall times and procs summed —
// in first-seen order.
func (t *Trace) Table() string {
	passes := t.Passes()
	type row struct {
		name     string
		runs     int
		cached   int
		wall     time.Duration
		procs    int
		hits     int
		misses   int
		degraded int

		diskHits   int
		diskMisses int
		heap, live uint64
		gcs        uint32
		levels     int
		width      int
		skipped    int
		notes      string
	}
	var rows []*row
	index := make(map[string]*row)
	for _, st := range passes {
		r := index[st.Name]
		if r == nil {
			r = &row{name: st.Name}
			index[st.Name] = r
			rows = append(rows, r)
		}
		r.runs++
		if st.Cached {
			r.cached++
		}
		r.wall += st.Wall
		r.procs += st.Procs
		r.hits += st.Hits
		r.misses += st.Misses
		r.degraded += st.Degraded
		r.diskHits += st.DiskHits
		r.diskMisses += st.DiskMisses
		r.heap = max(r.heap, st.HeapBytes)
		r.live = max(r.live, st.LiveBytes)
		r.gcs += st.GCs
		if st.Levels > r.levels {
			r.levels = st.Levels
		}
		if st.Width > r.width {
			r.width = st.Width
		}
		r.skipped += st.Skipped
		if st.Notes != "" {
			r.notes = st.Notes
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %5s %10s %6s  %s\n", "PASS", "RUNS", "WALL", "PROCS", "NOTES")
	var total time.Duration
	for _, r := range rows {
		procs := ""
		if r.procs > 0 {
			procs = fmt.Sprint(r.procs)
		}
		notes := r.notes
		if r.levels > 0 {
			notes = strings.TrimSpace(notes + fmt.Sprintf(" levels=%d width=%d", r.levels, r.width))
		}
		if r.skipped > 0 {
			notes = strings.TrimSpace(notes + fmt.Sprintf(" skipped=%d", r.skipped))
		}
		if r.hits+r.misses > 0 {
			notes = strings.TrimSpace(notes + fmt.Sprintf(" cache=%d/%d", r.hits, r.hits+r.misses))
		}
		if r.diskHits+r.diskMisses > 0 {
			notes = strings.TrimSpace(notes + fmt.Sprintf(" disk=%d/%d", r.diskHits, r.diskHits+r.diskMisses))
		}
		if r.cached > 0 {
			notes = strings.TrimSpace(notes + fmt.Sprintf(" cached=%d/%d", r.cached, r.runs))
		}
		if r.degraded > 0 {
			notes = strings.TrimSpace(notes + fmt.Sprintf(" degraded=%d", r.degraded))
		}
		if r.heap > 0 {
			notes = strings.TrimSpace(notes + fmt.Sprintf(" heap=%s live=%s gc=%d", fmtBytes(r.heap), fmtBytes(r.live), r.gcs))
		}
		fmt.Fprintf(&b, "%-16s %5d %10s %6s  %s\n", r.name, r.runs, fmtDuration(r.wall), procs, notes)
		total += r.wall
	}
	fmt.Fprintf(&b, "%-16s %5s %10s\n", "TOTAL", "", fmtDuration(total))
	return b.String()
}

// fmtBytes renders a byte count with a binary-unit suffix.
func fmtBytes(n uint64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}

func fmtDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.1fµs", float64(d)/float64(time.Microsecond))
	}
}

// Pass is one named pipeline stage. Run receives the pass's own stats
// record to fill in Procs and Notes; returning an error aborts the
// pipeline.
type Pass struct {
	Name string
	Run  func(st *PassStats) error

	// Shards opts the pass into intra-pass parallelism: after Run (the
	// serial prologue, which may be nil for a pure fan-out pass) the
	// manager calls Shards(workers) and runs shard(0..n-1) concurrently
	// on at most workers goroutines (Manager.SetWorkers; the count is
	// also passed in so a pass can pre-size per-worker scratch). Shards
	// of one pass must be mutually independent: each may only read
	// pipeline state produced by earlier passes or by Run, and write
	// state no other shard touches. A shard panic is isolated and fails
	// the pass deterministically (lowest shard index wins); when the
	// manager's context ends, remaining shards are skipped and the
	// pipeline stops with the context error.
	Shards func(workers int) (n int, shard func(item int))
	// Finish is the serial epilogue of a sharded pass, run after every
	// shard completed (not run when a shard failed or the context ended).
	Finish func(st *PassStats) error
}

// Manager runs an ordered list of passes.
type Manager struct {
	passes  []Pass
	workers int
}

// NewManager returns an empty manager.
func NewManager() *Manager { return &Manager{} }

// SetWorkers bounds the fan-out of sharded passes (Pass.Shards): at
// most n shards of one pass run concurrently. 0 (the default) resolves
// to GOMAXPROCS. Results are identical for every worker count; only
// wall-clock time changes.
func (m *Manager) SetWorkers(n int) { m.workers = n }

// Add appends a pass; passes run in the order they were added.
func (m *Manager) Add(p Pass) { m.passes = append(m.passes, p) }

// Run executes the passes in order, recording one PassStats per pass
// into tr (a nil trace discards them). It stops at the first pass error,
// or with ctx.Err() at the next pass boundary after ctx ends; passes are
// expected to observe the context themselves within a pass (sharded
// passes stop claiming shards). The trace then holds the passes that
// ran, the failed one included.
func (m *Manager) Run(ctx context.Context, tr *Trace) error {
	if ctx == nil {
		ctx = context.Background()
	}
	for _, p := range m.passes {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("before pass %s: %w", p.Name, err)
		}
		var runErr error
		tr.Time(p.Name, func(st *PassStats) {
			if p.Run != nil {
				runErr = protect(st, p.Run)
			}
			if runErr == nil && p.Shards != nil {
				runErr = m.runShards(ctx, p, st)
			}
			if runErr == nil && p.Finish != nil {
				runErr = protect(st, p.Finish)
			}
		})
		if runErr != nil {
			return fmt.Errorf("pass %s: %w", p.Name, runErr)
		}
	}
	return nil
}

// runShards executes the parallel-for phase of a sharded pass: it
// resolves the worker bound, fans shard(0..n-1) across the workers,
// times every shard, and converts shard panics into a deterministic
// pass error (the failure of the lowest shard index is reported, so a
// multi-shard crash yields the same diagnostic at every worker count).
func (m *Manager) runShards(ctx context.Context, p Pass, st *PassStats) error {
	workers := Workers(m.workers)
	n, shard := p.Shards(workers)
	if n <= 0 || shard == nil {
		return nil
	}
	if workers > n {
		workers = n
	}
	st.Shards = n
	st.ShardWall = make([]time.Duration, n)
	errs := make([]error, n)
	ParallelCtx(ctx, n, workers, func(i int) {
		start := time.Now()
		defer func() {
			st.ShardWall[i] = time.Since(start)
			if r := recover(); r != nil {
				errs[i] = fmt.Errorf("shard %d/%d: panic: %v", i, n, r)
			}
		}()
		shard(i)
	})
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	st.Notes = strings.TrimSpace(st.Notes + fmt.Sprintf(" shards=%d workers=%d", n, workers))
	return nil
}

// protect runs one pass body with panics converted into ordinary
// errors, so a crashing pass fails the pipeline with a diagnostic
// instead of crashing the process.
func protect(st *PassStats, body func(st *PassStats) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return body(st)
}
