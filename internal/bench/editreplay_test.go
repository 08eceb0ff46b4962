package bench_test

import (
	"fmt"
	"testing"
	"time"

	fsicp "fsicp"
	"fsicp/internal/bench"
	"fsicp/internal/progen"
)

func TestSpeedupGuards(t *testing.T) {
	cases := []struct {
		name         string
		wall, serial time.Duration
		want         float64
	}{
		{"zero wall", 0, time.Second, 1},
		{"zero serial", time.Second, 0, 1},
		{"negative wall", -time.Second, time.Second, 1},
		{"sub-microsecond wall", 500 * time.Nanosecond, time.Second, 1},
		{"sub-microsecond serial", time.Second, 500 * time.Nanosecond, 1},
		{"real ratio", time.Second, 4 * time.Second, 4},
	}
	for _, c := range cases {
		m := bench.Matrix{Wall: c.wall, Serial: c.serial}
		if got := m.Speedup(); got != c.want {
			t.Errorf("%s: Speedup() = %v, want %v", c.name, got, c.want)
		}
		r := EditReplayResult{IncrWall: c.wall, ColdWall: c.serial}
		if got := r.Speedup(); got != c.want {
			t.Errorf("%s: EditReplayResult.Speedup() = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestEditReplaySmall replays a short edit sequence on a mid-size
// profile, asserting the two pipelines agree (RunEditReplay verifies
// per-edit) and that the session actually reused work.
func TestEditReplaySmall(t *testing.T) {
	p := bench.SPECfp92()[1] // mid-size profile keeps the test quick
	r, err := RunEditReplay(p, 6, fsicp.Config{Method: fsicp.FlowSensitive, PropagateFloats: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.Edits == 0 {
		t.Fatal("every edit was rejected; the mutator is not producing valid programs")
	}
	if r.ProcsReused == 0 && r.CacheHits == 0 {
		t.Error("no reuse across the replay; the incremental engine is not engaging")
	}
	t.Log(r)
}

// BenchmarkEditReplay is the PR's headline measurement: incremental
// versus cold wall time over an edit stream on the suite's largest
// synthetic program (013.spice2g6, 120 procedures).
func BenchmarkEditReplay(b *testing.B) {
	p := bench.SPECfp92()[0]
	cfg := fsicp.Config{Method: fsicp.FlowSensitive, PropagateFloats: true}
	for i := 0; i < b.N; i++ {
		r, err := RunEditReplay(p, 10, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Speedup(), "speedup")
	}
}

// EditReplayResult is the outcome of one edit-replay run: the same
// random edit sequence analysed twice, once through an incremental
// Session (reparse + re-analysis with the per-procedure cache) and
// once cold (full Load + Analyze per edit).
type EditReplayResult struct {
	Edits       int           // edits applied (excluding rejected ones)
	IncrWall    time.Duration // total Session.Update + Session.Analyze time
	ColdWall    time.Duration // total Load + Analyze time
	ProcsReused int           // previous summaries that stood, summed over edits
	ProcsTotal  int           // procedures analysed per edit, summed
	CacheHits   int           // value-cache hits, summed
}

// Speedup reports cold wall over incremental wall (>1 means the
// incremental path is faster), with the same degenerate-timing guard
// as Matrix.Speedup.
func (r EditReplayResult) Speedup() float64 {
	if r.IncrWall <= 0 || r.ColdWall <= 0 ||
		r.IncrWall < time.Microsecond || r.ColdWall < time.Microsecond {
		return 1
	}
	return float64(r.ColdWall) / float64(r.IncrWall)
}

func (r EditReplayResult) String() string {
	return fmt.Sprintf("%d edits: incremental %v vs cold %v (%.2fx), reused %d/%d procedures, %d cache hits",
		r.Edits, r.IncrWall.Round(time.Millisecond), r.ColdWall.Round(time.Millisecond),
		r.Speedup(), r.ProcsReused, r.ProcsTotal, r.CacheHits)
}

// RunEditReplay builds the profile's synthetic program, applies a
// stream of random small edits (progen.Edit), and measures an incremental
// Session against cold full runs over the identical edit sequence.
// Both sides pay their complete pipeline: the session's Update
// (reparse, recheck, relower when the AST changed) plus its Analyze,
// versus Load plus Analyze. Edits the front end rejects are skipped on
// both sides. The per-edit results are verified identical between the
// two pipelines; a mismatch is returned as an error (the differential
// property tests cover this exhaustively, the benchmark double-checks
// for free).
func RunEditReplay(p bench.Profile, edits int, cfg fsicp.Config) (EditReplayResult, error) {
	var r EditReplayResult
	src := bench.Build(p)
	name := p.Name + ".mf"
	sess, err := fsicp.NewSession(name, src)
	if err != nil {
		return r, err
	}
	sess.Analyze(cfg) // cold first run primes the snapshot; not measured

	for i := 0; i < edits; i++ {
		next := progen.Edit(src, int64(i)*7919+1)

		t0 := time.Now()
		_, err := sess.Update(next)
		var inc *fsicp.Analysis
		if err == nil {
			inc = sess.Analyze(cfg)
		}
		incrWall := time.Since(t0)
		if err != nil {
			continue // rejected edit: neither side pays
		}
		src = next
		r.Edits++
		r.IncrWall += incrWall

		t0 = time.Now()
		prog, err := fsicp.Load(name, src)
		if err != nil {
			return r, fmt.Errorf("edit %d: cold load failed after incremental load succeeded: %v", i, err)
		}
		cold := prog.Analyze(cfg)
		r.ColdWall += time.Since(t0)

		reused, hits, misses := inc.Incremental()
		r.ProcsReused += reused
		r.ProcsTotal += reused + hits + misses
		r.CacheHits += hits
		if ic, cc := inc.Constants(), cold.Constants(); len(fsicp.DiffConstants(cc, ic)) != 0 {
			return r, fmt.Errorf("edit %d: incremental constants diverged from cold run (%d vs %d)", i, len(ic), len(cc))
		}
	}
	return r, nil
}
