package bench

import (
	"context"
	"time"

	"fsicp/internal/driver"
	"fsicp/internal/icp"
	"fsicp/internal/incr"
	"fsicp/internal/jumpfunc"
	"fsicp/internal/store"
)

// MatrixEntry is one method's outcome in a method matrix: its name, the
// wall-clock time of its analysis, and the number of constant formals it
// proved (the headline precision number every comparison in the paper
// uses).
type MatrixEntry struct {
	Name         string
	Wall         time.Duration
	ConstFormals int
	ConstEntries int // constant formals + constant global entries
}

// Matrix is the outcome of running every ICP method and every
// jump-function baseline over one program. Entries keeps a fixed order
// (the three ICP methods, then the four baselines), so output derived
// from it is deterministic regardless of scheduling.
type Matrix struct {
	Entries []MatrixEntry
	// Wall is the wall-clock time of the whole concurrent run; Serial
	// is the sum of the per-method times (what a serial loop would
	// cost).
	Wall   time.Duration
	Serial time.Duration
	// Workers is the concurrency bound the matrix ran under (after the
	// 0-means-GOMAXPROCS default was applied), so reports can say what
	// produced the speedup.
	Workers int
}

// Speedup reports how much the concurrent run beat the serial sum
// (1.0 means no benefit, e.g. on a single-core machine). Degenerate
// timings — a zero or negative wall or serial sum, or a run too short
// for the clock to measure meaningfully — report 1 rather than a
// nonsense ratio.
func (m Matrix) Speedup() float64 {
	if m.Wall <= 0 || m.Serial <= 0 {
		return 1
	}
	if m.Wall < time.Microsecond || m.Serial < time.Microsecond {
		// Sub-microsecond samples are clock noise; a ratio of two of
		// them is meaningless (and can be wildly large).
		return 1
	}
	return float64(m.Serial) / float64(m.Wall)
}

// RunMatrix analyses ctx with the three ICP methods and the four
// jump-function baselines concurrently (the methods are independent and
// the analyses never mutate the program). workers bounds the
// concurrency (0 means GOMAXPROCS); the flow-sensitive methods run
// their own wavefronts serially here so the matrix-level parallelism is
// the only source of concurrency.
//
// When gctx ends, the still-running ICP analyses degrade to the
// flow-insensitive solution (their entries remain sound, just less
// precise) and unclaimed methods are skipped, leaving zero-valued
// entries, rather than the whole matrix failing.
//
// When cacheDir is non-empty, each ICP method runs with an incremental
// engine layered over a shared on-disk store rooted there
// (internal/store), so a second matrix over the same programs starts
// warm. The cache affects time only — the entries are identical with
// or without it — and an unusable directory silently falls back to the
// uncached path.
func RunMatrix(gctx context.Context, ctx *icp.Context, floats bool, workers int, cacheDir string) Matrix {
	var disk *store.Disk
	if cacheDir != "" {
		if d, err := store.Open(cacheDir, store.Options{}); err == nil {
			disk = d
		}
	}
	// One engine per ICP method: the engines share the disk layer (safe
	// for concurrent use, and the cache keys carry the full method
	// configuration) but keep private in-memory generations.
	engine := func() *incr.Engine {
		if disk == nil {
			return nil
		}
		return incr.NewEngineWithStore(incr.NewTiered(incr.NewMemStore(), disk))
	}
	methods := []struct {
		name string
		run  func() (constFormals, constEntries int)
	}{
		{"flow-insensitive", icpRunner(ctx, icp.Options{Method: icp.FlowInsensitive, PropagateFloats: floats, Workers: 1, Ctx: gctx, Incr: engine()})},
		{"flow-sensitive", icpRunner(ctx, icp.Options{Method: icp.FlowSensitive, PropagateFloats: floats, Workers: 1, Ctx: gctx, Incr: engine()})},
		{"flow-sensitive-iterative", icpRunner(ctx, icp.Options{Method: icp.FlowSensitiveIterative, PropagateFloats: floats, Workers: 1, Ctx: gctx, Incr: engine()})},
		{"jf-literal", jfRunner(ctx, jumpfunc.Literal)},
		{"jf-intra", jfRunner(ctx, jumpfunc.Intra)},
		{"jf-pass-through", jfRunner(ctx, jumpfunc.PassThrough)},
		{"jf-polynomial", jfRunner(ctx, jumpfunc.Polynomial)},
	}

	m := Matrix{Entries: make([]MatrixEntry, len(methods)), Workers: driver.Workers(workers)}
	// Pre-fill names so a method skipped on cancellation still has an
	// identifiable (zero-count) entry.
	for i := range m.Entries {
		m.Entries[i].Name = methods[i].name
	}
	start := time.Now()
	driver.ParallelCtx(gctx, len(methods), driver.Workers(workers), func(i int) {
		t0 := time.Now()
		cf, ce := methods[i].run()
		m.Entries[i] = MatrixEntry{
			Name:         methods[i].name,
			Wall:         time.Since(t0),
			ConstFormals: cf,
			ConstEntries: ce,
		}
	})
	m.Wall = time.Since(start)
	for _, e := range m.Entries {
		m.Serial += e.Wall
	}
	return m
}

func icpRunner(ctx *icp.Context, opts icp.Options) func() (int, int) {
	return func() (int, int) {
		res := icp.Analyze(ctx, opts)
		formals, entries := 0, 0
		for _, p := range ctx.CG.Reachable {
			nf := len(res.ConstantFormals(p))
			formals += nf
			entries += nf
			for _, g := range ctx.Prog.Sem.Globals {
				if _, ok := res.EntryConstant(p, g); ok && ctx.MR.DRef(p).Has(g) {
					entries++
				}
			}
		}
		return formals, entries
	}
}

func jfRunner(ctx *icp.Context, kind jumpfunc.Kind) func() (int, int) {
	return func() (int, int) {
		res := jumpfunc.Analyze(ctx, kind)
		formals := 0
		for _, p := range ctx.CG.Reachable {
			formals += len(res.ConstantFormals(p))
		}
		// The baselines propagate formals only; entry count equals the
		// formal count.
		return formals, formals
	}
}
