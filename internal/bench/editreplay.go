package bench

import (
	"fmt"
	"time"

	fsicp "fsicp"
	"fsicp/internal/progen"
)

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
func RunEditReplay(p Profile, edits int, cfg fsicp.Config) (EditReplayResult, error) {
	var r EditReplayResult
	src := Build(p)
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
