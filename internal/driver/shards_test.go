package driver

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
)

// TestShardedPassRunsEveryShardOnce asserts the Run → Shards → Finish
// protocol: the prologue runs first, every shard index is visited
// exactly once, and the epilogue sees all shard results.
func TestShardedPassRunsEveryShardOnce(t *testing.T) {
	const n = 50
	var prologue, epilogue bool
	counts := make([]int32, n)
	m := NewManager()
	m.SetWorkers(4)
	m.Add(Pass{
		Name: "p",
		Run: func(*PassStats) error {
			prologue = true
			return nil
		},
		Shards: func(workers int) (int, func(int)) {
			if !prologue {
				t.Error("Shards called before Run")
			}
			return n, func(i int) { atomic.AddInt32(&counts[i], 1) }
		},
		Finish: func(st *PassStats) error {
			epilogue = true
			for i := range counts {
				if c := atomic.LoadInt32(&counts[i]); c != 1 {
					t.Errorf("shard %d ran %d times", i, c)
				}
			}
			return nil
		},
	})
	tr, err := run(m)
	if err != nil {
		t.Fatal(err)
	}
	if !epilogue {
		t.Fatal("Finish never ran")
	}
	st := tr.Passes()[0]
	if st.Shards != n {
		t.Errorf("Shards = %d, want %d", st.Shards, n)
	}
	if len(st.ShardWall) != n {
		t.Errorf("len(ShardWall) = %d, want %d", len(st.ShardWall), n)
	}
	if !strings.Contains(st.Notes, "shards=50 workers=4") {
		t.Errorf("Notes = %q, want a shards=50 workers=4 marker", st.Notes)
	}
}

// TestShardedPassWorkerClamp: a pass with fewer shards than workers
// reports the clamped worker count, and a shard count of zero skips
// the fan-out (and the note) entirely.
func TestShardedPassWorkerClamp(t *testing.T) {
	m := NewManager()
	m.SetWorkers(16)
	m.Add(Pass{Name: "small", Shards: func(workers int) (int, func(int)) {
		return 2, func(int) {}
	}})
	m.Add(Pass{Name: "empty", Shards: func(workers int) (int, func(int)) {
		return 0, nil
	}})
	tr, err := run(m)
	if err != nil {
		t.Fatal(err)
	}
	small, empty := tr.Passes()[0], tr.Passes()[1]
	if !strings.Contains(small.Notes, "shards=2 workers=2") {
		t.Errorf("small.Notes = %q, want workers clamped to 2", small.Notes)
	}
	if empty.Shards != 0 || empty.Notes != "" {
		t.Errorf("empty pass recorded Shards=%d Notes=%q, want no fan-out", empty.Shards, empty.Notes)
	}
}

// TestShardPanicBecomesError asserts a panicking shard is isolated into
// a pass error naming the lowest panicking shard (deterministic no
// matter which goroutine finishes first), and later passes do not run.
func TestShardPanicBecomesError(t *testing.T) {
	ran := false
	m := NewManager()
	m.SetWorkers(4)
	m.Add(Pass{Name: "boom", Shards: func(workers int) (int, func(int)) {
		return 8, func(i int) {
			if i >= 3 {
				panic("shard kaboom")
			}
		}
	}})
	m.Add(Pass{Name: "after", Run: func(*PassStats) error {
		ran = true
		return nil
	}})
	_, err := run(m)
	if err == nil || !strings.Contains(err.Error(), "shard 3/8") || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v, want the lowest panicking shard (3/8) reported", err)
	}
	if ran {
		t.Error("pass after a failed sharded pass still ran")
	}
}

// TestShardedPassCancellation asserts a cancelled context aborts the
// fan-out with the context error and skips Finish — the epilogue must
// never observe a partial shard set.
func TestShardedPassCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var finished bool
	var started atomic.Int32
	m := NewManager()
	m.SetWorkers(2)
	m.Add(Pass{
		Name: "slow",
		Shards: func(workers int) (int, func(int)) {
			return 100, func(i int) {
				started.Add(1)
				cancel() // first claimed shard cancels the rest
			}
		},
		Finish: func(*PassStats) error {
			finished = true
			return nil
		},
	})
	err := m.Run(ctx, nil)
	if err == nil || !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if finished {
		t.Error("Finish ran after a cancelled fan-out")
	}
	if n := started.Load(); n == 100 {
		t.Error("cancellation stopped no shards from being claimed")
	}
}
