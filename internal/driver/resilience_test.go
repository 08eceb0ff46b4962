package driver

import (
	"context"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestManagerPassPanicBecomesError: a panicking pass fails the pipeline
// with a diagnostic naming the pass instead of crashing the process,
// and later passes do not run.
func TestManagerPassPanicBecomesError(t *testing.T) {
	m := NewManager()
	ran := false
	m.Add(Pass{Name: "boom", Run: func(*PassStats) error { panic("kaboom") }})
	m.Add(Pass{Name: "after", Run: func(*PassStats) error { ran = true; return nil }})
	_, err := run(m)
	if err == nil {
		t.Fatal("panicking pass reported no error")
	}
	for _, want := range []string{"boom", "panic", "kaboom"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	if ran {
		t.Error("pass after the panic still ran")
	}
}

// TestManagerContextStopsBetweenPasses: a context cancelled mid-run
// stops the pipeline at the next pass boundary with a positioned error.
func TestManagerContextStopsBetweenPasses(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	m := NewManager()
	m.Add(Pass{Name: "first", Run: func(*PassStats) error { cancel(); return nil }})
	ran := false
	m.Add(Pass{Name: "second", Run: func(*PassStats) error { ran = true; return nil }})
	err := m.Run(ctx, nil)
	if err == nil || !strings.Contains(err.Error(), "before pass second") {
		t.Fatalf("err = %v, want cancellation before pass second", err)
	}
	if ran {
		t.Error("pass ran after cancellation")
	}
}

// TestScheduleCtxStopsClaiming: once the context ends, no item
// starts — here item 0 cancels and its four successors never run — and
// the call still returns (no deadlock, no leak).
func TestScheduleCtxStopsClaiming(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	d := NewDAG(5, false, []int32{0, 0, 0, 0}, []int32{1, 2, 3, 4})
	var ran atomic.Int64
	Schedule(ctx, d, 2, func(i int) {
		if i == 0 {
			cancel()
			return
		}
		ran.Add(1)
	})
	if got := ran.Load(); got != 0 {
		t.Errorf("%d items started after cancellation", got)
	}
}

// TestScheduleCancelReturnsWithWorkersExited: a context ended while
// the other workers wait for ready items wakes them, no further item
// starts, and the call returns with every worker goroutine exited.
func TestScheduleCancelReturnsWithWorkersExited(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	// Item 0 is the only root; items 1..9 wait for it.
	from, to := make([]int32, 9), make([]int32, 9)
	for k := range to {
		to[k] = int32(k + 1)
	}
	d := NewDAG(10, false, from, to)
	var cancelled atomic.Bool
	var late atomic.Int64
	Schedule(ctx, d, 4, func(i int) {
		if cancelled.Load() {
			late.Add(1)
		}
		if i == 0 {
			time.Sleep(20 * time.Millisecond) // the other workers park on the queue
			cancel()
			cancelled.Store(true)
		}
	})
	if n := late.Load(); n != 0 {
		t.Errorf("%d items started after cancellation", n)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running after Schedule returned (%d before)", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestParallelCtxNilIsBackground: a nil-Done context behaves exactly
// like Parallel.
func TestParallelCtxNilIsBackground(t *testing.T) {
	var ran atomic.Int64
	ParallelCtx(context.Background(), 10, 4, func(int) { ran.Add(1) })
	if ran.Load() != 10 {
		t.Errorf("ran %d of 10", ran.Load())
	}
}
