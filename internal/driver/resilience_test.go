package driver

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
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

// TestWavefrontCtxStopsClaiming: once the context ends, unclaimed items
// are skipped and the call still returns (no deadlock, no leak).
func TestWavefrontCtxStopsClaiming(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	levels := [][]int{{0}, {1, 2, 3, 4}}
	var ran atomic.Int64
	WavefrontCtx(ctx, levels, 2, func(i int) {
		if i == 0 {
			cancel()
			return
		}
		ran.Add(1)
	})
	if got := ran.Load(); got != 0 {
		t.Errorf("%d items of the level after cancellation still ran", got)
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
