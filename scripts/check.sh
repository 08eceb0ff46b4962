#!/bin/sh
# Full verification gate: build, vet, format, race-enabled tests, and
# the fault-injection smoke matrix.
set -eu
cd "$(dirname "$0")/.."

echo "== go build =="
go build ./...

echo "== go vet =="
go vet ./...

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go test -race =="
# -short skips the corpus-scale tests (10k procedures; 2k at four
# worker counts) — they run without the race detector in the
# large-corpus stage below, where their size buys signal instead of
# multiplying race overhead.
go test -race -short ./...

echo "== fault-injection smoke (fixed seeds) =="
# The resilience suites run deterministic seed matrices; re-run them
# race-enabled and verbose-on-failure so a regression in the failure
# model fails the gate with the exact seed named. The icp matrix covers
# FS, FS + returns, FS + returns + refresh, and FS-iterative, so the
# refresh's degrade and cancellation sweep are exercised too.
go test -race -count=1 \
    -run 'TestInjectedFaultsSoundness|TestFaultDeterminismAcrossWorkers|TestFuelBudgetSoundness|TestCancelledContextDegradesEverything' \
    ./internal/icp
go test -race -count=1 \
    -run 'TestFaultsNeverEscapePublicAPI|TestFaultReportsIdenticalAcrossWorkers|TestCancellationHygiene|TestDegradedResultsNotReusedAcrossRuns' \
    .

echo "== warm-cache determinism =="
# The persistent summary store must change analysis time only: cold,
# warm-disk, and corrupted-cache runs must produce byte-identical
# reports, and the store's fault-injection matrix must degrade every
# damaged entry to a clean recompute.
go test -race -count=1 \
    -run 'TestWarmDiskCacheDeterminism|TestCacheStatsShape' \
    .
go test -race -count=1 \
    -run 'TestCorruptionDegradesToMiss|TestWrongKeyHashRejected|TestEviction' \
    ./internal/store
go test -race -count=1 ./internal/codec

echo "== server soak smoke =="
# The daemon's chaos soak: concurrent clients against a deliberately
# tiny server (2 slots, queue of 2, shed watermark 1) with injected
# panics, starved fuel, and 1ms deadlines. Race-enabled; every request
# must come back sound or 429, and no goroutine may survive the drain.
go test -race -count=1 \
    -run 'TestServeChaosSoak|TestReportsByteIdenticalAcrossPoolSizes|TestPooledSessionReusableAfterDegradedRun|TestCountersCountEveryResponse' \
    ./internal/serve
go test -race -count=1 ./cmd/fsicpd

echo "== incremental determinism (race) =="
# A Session keeps a procedure's previous result iff its key and entry
# environment are unchanged, and its returns-stage result iff, besides,
# its call sites' hooks answer as before. Every incremental answer must
# equal a cold run: the interprocedural edit replay, the stale-reuse
# repros (a callee's REF set grows; a caller drops a call; a callee's
# returned constant or by-reference exit value changes; a call edge
# flips between forward and back; a formal shares a global's name; a
# caller's by-reference global grows a callee's segment) in the
# library and through the daemon's /update, the update fuzzer's seeds,
# a global-initializer edit under the layout-only program key, the FS
# row's run= counting every SCC run, the returns traversal's own
# outputs (return values, exit environments, summaries) over an edit
# stream, and a one-shot engine building no records.
go test -race -count=1 \
    -run 'TestSessionDifferentialEditReplay|TestSessionStaleReuse|FuzzSessionUpdate|TestSessionProgramKeyIgnoresGlobalInitializers|TestSessionEntryNameClash|TestSessionRunCountsEverySCCRun' \
    .
go test -race -count=1 -run 'TestIncrementalReturnsMatchCold|TestOneShotEngineKeepsNoReturnsRecords' ./internal/icp
go test -race -count=1 -run 'TestStands|TestReturnsRecordStands' ./internal/incr
go test -race -count=1 -run 'TestUpdateAfterCallRemoval' ./internal/serve

echo "== SSA on demand (race) =="
# icp.Context builds a procedure's SSA the first time a pass reads it,
# once per slot, and concurrent analyses of one context share the
# slots: the slot discipline itself, the seven RunMatrix methods on one
# context, concurrent facade analyses, and a Session edit that must
# build SSA only for the procedures FS or the returns traversal runs
# SCC on.
go test -race -count=10 -run 'TestContextSSA' ./internal/icp
go test -race -count=10 -run 'TestRunMatrixWorkers' ./internal/bench
go test -race -count=10 \
    -run 'TestSessionBuildsSSAOnlyWhereRead|TestConcurrentAnalyze' \
    .

echo "== optimizer on one SSA per procedure (race) =="
# The optimizer edits the overlays the analysis built in place and
# rebuilds one only where fold changed a CFG: the pipeline must stay
# schedule-independent, each pass row must count the overlays it built,
# and a graft of entry constants plus every dead-store deletion must
# leave an overlay equal to a fresh build.
go test -race -count=1 \
    -run 'TestOptimizeDeterministicAcrossWorkers|TestOptimizeRebuildsOnlyChangedCFGs' \
    ./internal/transform
go test -race -count=1 -run 'TestInPlaceEditsMatchBuild' ./internal/ssa

echo "== SSA overlay layout =="
# No definition, use or table row of the SSA overlay holds a pointer;
# a build's allocation count does not grow with definitions or uses
# (counted here because the race detector's sync.Pool drops pooled
# scratch at random); and every overlay of the cold-compile benchmark
# corpus (2305 procedures, 180,911 definitions) keeps at most 12 MiB
# live (skipped under -short above).
go test -count=1 -run 'TestSSALiveHeap|TestRecordsHoldNoPointers|TestBuildAllocsIndependentOfSize' -v ./internal/ssa

echo "== load/delta-skip/global-domain determinism (race) =="
# The analysis-phase fast paths — the sharded load, delta-propagation
# skips and the sparse global domain — must be invisible in the
# output: all 7 methods on the 2k corpus, workers 1/2/4/8, on a copy
# loaded with one worker and with skipping forced off, plus a
# dense-domain load, race-enabled.
go test -race -count=1 -run 'TestSpillAndDeltaSkipDeterminism' .

echo "== large-corpus smoke =="
# The scaling suite at smoke size: a 2049-procedure multi-module corpus
# must produce byte-identical results at workers 1/2/4/8, a malformed
# file in a corpus must be reported by name without leaking goroutines,
# and the 10k-procedure corpus must load and analyse end to end. The
# full 25k corpus stays behind FSICP_BENCH_LARGE=1 (set it in a
# scheduled job, not per push).
go test -count=1 \
    -run 'TestLargeCorpus|TestLoadDirCorpus' \
    .

echo "== bench smoke =="
# One iteration of the wavefront and sharded-load benchmarks: catches
# crashes or hangs in the benchmark harnesses themselves without paying
# for a full measurement.
go test -run '^$' -bench 'BenchmarkAnalyzeParallel|BenchmarkLoadParallel|BenchmarkColdEndToEnd|BenchmarkColdWarmDisk|BenchmarkOptimize|BenchmarkServeSustained|BenchmarkLargeCorpus|BenchmarkAnalyzeLargeCorpus|BenchmarkSessionEditReturns' -benchtime=1x -benchmem .

echo "== benchmark module =="
# perfbench/ is its own Go module (go build ./... above never compiles
# it), yet it calls internal entry points directly — irbuild.Build,
# modref.Compute, ssa.Build, transform.Optimize — so an internal API
# change must be caught here.
(cd perfbench && go vet ./... && go test -count=1 ./...)

echo "== allocation-regression gate =="
# Re-measures the guarded benchmarks and fails when allocs/op grossly
# exceeds the committed BENCH_icp.json (see the file's note for how to
# refresh it after an intentional change).
FSICP_BENCH_GATE=1 go test -count=1 -run TestBenchAllocGate .

echo "ok"
