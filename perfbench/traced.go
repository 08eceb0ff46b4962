package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	fsicp "fsicp"
	"fsicp/internal/driver"
	"fsicp/internal/progen"
	"fsicp/internal/report"
	"fsicp/internal/serve"
	"fsicp/internal/transform"
)

const (
	// corpusReplayEdits and serveReplayEdits are the versions after the
	// first that the traced run replays through a Session and through an
	// in-process server.
	corpusReplayEdits = 4
	serveReplayEdits  = 8
	// idleQueries is how many /query requests the traced run times with
	// no update in flight.
	idleQueries = 20
)

// tracedInput is what the traced run measures for one workload.
type tracedInput struct {
	files   []progen.File  // the op's input
	cfgs    []fsicp.Config // analyses whose reports the report layer builds
	withOpt bool           // attach the optimizer's report, as `fsicp -optimize -json` does
	refs    [][]byte       // the reference reports, parallel to cfgs
	stream  []string       // versions replayed through a Session and a server
	name    string         // the replayed program's name
}

// chainOut is what one pass of the layer chain produced.
type chainOut struct {
	instrs    int
	reachable int
	runs      methodRuns
	opt       transform.Report
	reports   [][]byte
}

// chain is the traced run's op: every layer called serially through
// its public entry point, front end to report.
func chain(files []progen.File, rec *recorder, encode func(transform.Report) ([][]byte, error)) (chainOut, error) {
	var out chainOut
	ctx, instrs, err := frontEnd(files, rec, true)
	if err != nil {
		return out, err
	}
	out.instrs, out.reachable = instrs, len(ctx.CG.Reachable)
	out.runs = analyzeAll(ctx, rec)
	if out.opt, err = optimize(ctx, out.runs.fsReturns, rec); err != nil {
		return out, err
	}
	rec.do("report", func() { out.reports, err = encode(out.opt) })
	return out, err
}

// tracedRun is the per-layer run. It runs the layer chain untraced to
// warm up, then traced, then untraced again (the difference between
// the last two is the tracing overhead), checks that the traced
// chain's reports equal the references, probes SSA memory, and replays
// a version stream through a Session and through an in-process server.
func (b *bench) tracedRun(in tracedInput) error {
	rec := b.rec
	// The report layer renders facade analyses of the same input,
	// prepared before the ops.
	prog, err := fsicp.LoadFiles(sourceFiles(in.files), fsicp.LoadOptions{Workers: b.nproc})
	if err != nil {
		return err
	}
	as := make([]*fsicp.Analysis, len(in.cfgs))
	for i, cfg := range in.cfgs {
		as[i] = prog.Analyze(cfg)
	}
	encode := func(opt transform.Report) ([][]byte, error) {
		out := make([][]byte, len(in.cfgs))
		for i, cfg := range in.cfgs {
			rep := report.Build(prog, as[i], cfg)
			if in.withOpt {
				rep.Optimize = facadeOptimizeReport(opt)
			}
			var err error
			if out[i], err = rep.Encode(); err != nil {
				return nil, err
			}
		}
		return out, nil
	}

	// An untraced op warms the heap up first, so warm-up does not count
	// as tracing overhead; the untraced op the traced one is compared
	// with runs after it.
	untracedOp := func() (time.Duration, error) {
		runtime.GC()
		t0 := time.Now()
		_, err := chain(in.files, nil, encode)
		return time.Since(t0), err
	}
	warm, err := untracedOp()
	if err != nil {
		return err
	}
	runtime.GC()
	gc0 := readGC()
	rec.beginOp()
	t0 := time.Now()
	out, err := chain(in.files, rec, encode)
	traced := time.Since(t0)
	gcCycles, gcPauseMs := readGC().since(gc0)
	if err != nil {
		return err
	}
	for i, got := range out.reports {
		b.checkReport("traced "+in.cfgs[i].Method.String(), got, in.refs[i], nil)
		fmt.Fprintf(b.log, "digest %s traced=%s untraced-reference=%s\n", in.cfgs[i].Method, digest(got), digest(in.refs[i]))
	}
	const op = 1
	m := b.metrics
	layer := func(name, prefix string) (float64, float64) {
		d, alloc := rec.total(op, name)
		m[prefix+".ms"] = metric{ms(d), "ms"}
		return ms(d), mib(alloc)
	}
	count := func(name string, v int) { m[name] = metric{float64(v), "count"} }

	parseMs, parseAlloc := layer("parser", "parser")
	m["parser.alloc_mib"] = metric{parseAlloc, "MiB"}
	m["parser.mb_per_s"] = metric{float64(totalBytes(in.files)) / 1e6 / (parseMs / 1000), "MB/s"}
	_, semAlloc := layer("sem", "sem")
	m["sem.alloc_mib"] = metric{semAlloc, "MiB"}
	_, irAlloc := layer("irbuild", "irbuild")
	m["irbuild.alloc_mib"] = metric{irAlloc, "MiB"}
	count("irbuild.instrs", out.instrs)
	layer("callgraph", "callgraph")
	layer("alias", "alias")
	clob, _ := rec.total(op, "alias.clobbers")
	m["alias.clobbers_ms"] = metric{ms(clob), "ms"}
	_, mrAlloc := layer("modref", "modref")
	m["modref.alloc_mib"] = metric{mrAlloc, "MiB"}
	_, ssaAlloc := layer("ssa", "ssa")
	m["ssa.alloc_mib"] = metric{ssaAlloc, "MiB"}

	icpMs := map[string]float64{}
	var icpAlloc float64
	for _, name := range []string{"fi", "fs", "fs_returns", "fs_refresh", "iter"} {
		d, a := rec.total(op, "icp."+name)
		icpMs[name] = ms(d)
		icpAlloc += mib(a)
	}
	r := out.runs
	m["icp.fi_ms"] = metric{icpMs["fi"], "ms"}
	m["icp.fs_ms"] = metric{icpMs["fs"], "ms"}
	m["icp.returns_ms"] = metric{icpMs["fs_returns"] - icpMs["fs"], "ms"}
	m["icp.fs_refresh_ms"] = metric{icpMs["fs_refresh"], "ms"}
	m["icp.iter_ms"] = metric{icpMs["iter"], "ms"}
	m["icp.alloc_mib"] = metric{icpAlloc, "MiB"}
	count("icp.constants", entryConstants(r.fsReturns))
	count("icp.back_edges_used", r.fs.BackEdgesUsed)
	count("icp.degraded", len(r.fi.Degradations)+len(r.fs.Degradations)+len(r.fsReturns.Degradations)+
		len(r.fsRefresh.Degradations)+len(r.iter.Degradations))
	count("icp.iter_rounds", r.iter.Iterations)
	m["icp.iter_skip_ratio"] = metric{ratio(float64(skipped(r.iterTrace)), float64(r.iter.Iterations*out.reachable)), "ratio"}
	m["icp.fs_fi_ratio"] = metric{ratio(icpMs["fs"], icpMs["fi"]), "ratio"}
	// The compile path is what `fsicp -returns -optimize -json` runs:
	// every top-level span except the analysis variants it does not.
	compileMs := ms(rec.rootSum(op)) - icpMs["fi"] - icpMs["fs"] - icpMs["fs_refresh"] - icpMs["iter"]
	m["icp.compile_share"] = metric{ratio(icpMs["fs"], compileMs), "ratio"}

	_, trAlloc := layer("transform", "transform")
	m["transform.alloc_mib"] = metric{trAlloc, "MiB"}
	count("transform.folded", out.opt.FoldedInstrs)
	count("transform.dead_stores", out.opt.DeadStores)
	count("transform.hoisted", out.opt.HoistedConsts)
	count("transform.instrs_eliminated", out.opt.RemovedInstrs+out.opt.FoldedInstrs+out.opt.CSEReplaced+out.opt.DeadStores)
	layer("report", "report")
	reportBytes := 0
	for _, rep := range out.reports {
		reportBytes += len(rep)
	}
	m["report.bytes"] = metric{float64(reportBytes), "bytes"}
	m["runtime.gc_cycles"] = metric{gcCycles, "count"}
	m["runtime.gc_pause_ms"] = metric{gcPauseMs, "ms"}
	// Release the traced op's results before the second untraced op, so
	// both untraced ops run with the same live heap.
	out = chainOut{}
	untraced, err := untracedOp()
	if err != nil {
		return err
	}
	fmt.Fprintf(b.log, "op warm-up %v traced %v untraced %v\n", warm, traced, untraced)
	m["trace.coverage_pct"] = metric{100 * ms(rec.rootSum(op)) / ms(untraced), "pct"}
	m["trace.overhead_pct"] = metric{100 * (ms(traced) - ms(untraced)) / ms(untraced), "pct"}
	as, prog = nil, nil

	if err := b.ssaProbe(in.files); err != nil {
		return err
	}
	sess, err := b.sessionReplay(in)
	if err != nil {
		return err
	}
	if err := b.serveReplay(in, sess); err != nil {
		return err
	}

	writeTable(b.log, rec.table())
	path := filepath.Join(b.out, fmt.Sprintf("%s-seed%d-trace.json", b.workload, b.seed))
	if err := rec.writeChromeTrace(path); err != nil {
		return err
	}
	fmt.Fprintf(b.log, "chrome trace %s (%d spans)\n", path, len(rec.spans))
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// skipped reads the procedure visits delta propagation skipped from
// the FS-iterative pass record.
func skipped(tr *driver.Trace) int {
	n := 0
	for _, st := range tr.Passes() {
		if st.Name == "FS-iterative" {
			n += st.Skipped
		}
	}
	return n
}

// ssaProbe measures what the SSA forms keep alive: the live heap after
// building every reachable procedure's SSA minus the live heap before,
// both after a full collection, plus the definition and φ counts.
func (b *bench) ssaProbe(files []progen.File) error {
	ctx, _, err := frontEnd(files, nil, false)
	if err != nil {
		return err
	}
	live0 := heapLive()
	buildSSA(ctx)
	live1 := heapLive()
	defs, phis := 0, 0
	for _, s := range ctx.SSACache {
		defs += len(s.Defs)
		for _, ps := range s.Phis {
			phis += len(ps)
		}
	}
	back, edges := ctx.CG.BackEdgeRatio()
	runtime.KeepAlive(ctx)
	m := b.metrics
	m["ssa.live_mib"] = metric{mib(live1) - mib(live0), "MiB"}
	m["ssa.defs"] = metric{float64(defs), "count"}
	m["ssa.phis"] = metric{float64(phis), "count"}
	m["callgraph.edges"] = metric{float64(edges), "count"}
	m["callgraph.back_edges"] = metric{float64(back), "count"}
	return nil
}

// heapLive collects garbage and reads the live heap.
func heapLive() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// sessionReplay replays the version stream through fsicp.Session, the
// daemon's per-program engine, with the daemon's worker count. Each
// version is one op: Session.Update, Session.Analyze and the report.
// It returns the per-version in-process latencies.
func (b *bench) sessionReplay(in tracedInput) ([]float64, error) {
	rec := b.rec
	cfg := compileConfig(b.nproc)
	sess, err := fsicp.NewSessionWith(in.name+".mf", in.stream[0], fsicp.LoadOptions{Workers: b.nproc})
	if err != nil {
		return nil, err
	}
	sess.Analyze(cfg) // the engine's baseline, as the daemon's /analyze leaves it
	var updMs, anaMs, planMs, total []float64
	var reused, reachable, hits, lookups, analysed, prebuilt int
	for _, src := range in.stream[1:] {
		rec.beginOp()
		var prog *fsicp.Program
		var a *fsicp.Analysis
		rec.do("session.update", func() { prog, err = sess.Update(src) })
		if err != nil {
			return nil, err
		}
		rec.do("session.analyze", func() { a = sess.Analyze(cfg) })
		rec.do("session.report", func() { _, err = encodeReport(prog, a, cfg) })
		if err != nil {
			return nil, err
		}
		u, _ := rec.total(rec.op, "session.update")
		an, _ := rec.total(rec.op, "session.analyze")
		rp, _ := rec.total(rec.op, "session.report")
		updMs, anaMs, total = append(updMs, ms(u)), append(anaMs, ms(an)), append(total, ms(u+an+rp))
		for _, st := range a.Stats() {
			switch {
			case st.Name == "incr-plan":
				planMs = append(planMs, ms(st.Wall))
			case st.Name == "ssa" && !st.Cached:
				prebuilt += st.Procs
			}
		}
		r, h, miss := a.Incremental()
		n := len(prog.Procedures())
		reused, reachable, hits, lookups, analysed = reused+r, reachable+n, hits+h, lookups+h+miss, analysed+n-r
	}
	m := b.metrics
	m["session.update_ms"] = metric{median(updMs), "ms"}
	m["session.analyze_ms"] = metric{median(anaMs), "ms"}
	m["incr.plan_ms"] = metric{median(planMs), "ms"}
	m["incr.reused_ratio"] = metric{ratio(float64(reused), float64(reachable)), "ratio"}
	m["incr.hit_ratio"] = metric{ratio(float64(hits), float64(lookups)), "ratio"}
	m["ssa.used_ratio"] = metric{ratio(float64(analysed), float64(prebuilt)), "ratio"}
	return total, nil
}

// serveReplay replays the same stream through the serve layer: an
// in-process server on loopback, one client, the daemon's settings.
// The serving overhead is the client's /update p50 minus the
// in-process p50 of the same versions (sessionMs).
func (b *bench) serveReplay(in tracedInput, sessionMs []float64) error {
	rec := b.rec
	srv := serve.New(serve.Config{Concurrency: b.nproc, Workers: b.nproc, ShedQueue: -1})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(l)
	}()
	d := &daemon{base: "http://" + l.Addr().String(), client: &http.Client{Timeout: 60 * time.Second}}
	defer func() {
		d.client.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Drain(ctx)
		hs.Shutdown(ctx)
		<-done
	}()
	if _, err := d.post("/analyze", in.name, in.stream[0]); err != nil {
		return err
	}
	var updMs, idleMs []float64
	for _, src := range in.stream[1:] {
		body := requestBody(in.name, src)
		rec.beginOp()
		rec.do("serve.update", func() { _, err = d.do(http.MethodPost, "/update", body) })
		if err != nil {
			return err
		}
		u, _ := rec.total(rec.op, "serve.update")
		updMs = append(updMs, ms(u))
	}
	rec.beginOp()
	for i := 0; i < idleQueries; i++ {
		rec.do("serve.query", func() { _, err = d.query(in.name) })
		if err != nil {
			return err
		}
	}
	for _, s := range rec.find(rec.op, "serve.query") {
		idleMs = append(idleMs, ms(s.dur()))
	}
	st := srv.Stats()
	m := b.metrics
	m["serve.overhead_ms"] = metric{median(updMs) - median(sessionMs), "ms"}
	m["serve.query_idle_ms"] = metric{median(idleMs), "ms"}
	m["serve.rejected"] = metric{float64(st.Rejected), "count"}
	m["serve.shed"] = metric{float64(st.Shed), "count"}
	m["serve.coalesced"] = metric{float64(st.Coalesced), "count"}
	return nil
}

// gcSnapshot is the runtime's cumulative GC counters at one moment.
type gcSnapshot struct {
	cycles uint64
	pauses *metrics.Float64Histogram
}

func readGC() gcSnapshot {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/sched/pauses/total/gc:seconds"}}
	metrics.Read(s)
	return gcSnapshot{cycles: s[0].Value.Uint64(), pauses: s[1].Value.Float64Histogram()}
}

// since returns the GC cycles and the total GC pause time in ms
// between an earlier snapshot and this one. Pauses come from a
// histogram, so each is counted at its bucket's midpoint.
func (g gcSnapshot) since(earlier gcSnapshot) (cycles, pauseMs float64) {
	for i, c := range g.pauses.Counts {
		n := c
		if i < len(earlier.pauses.Counts) {
			n -= earlier.pauses.Counts[i]
		}
		lo, hi := g.pauses.Buckets[i], g.pauses.Buckets[i+1]
		switch {
		case math.IsInf(lo, -1):
			lo = hi
		case math.IsInf(hi, 1):
			hi = lo
		}
		pauseMs += float64(n) * (lo + hi) / 2 * 1000
	}
	return float64(g.cycles - earlier.cycles), pauseMs
}
