package driver

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// run executes m under a background context into a fresh trace.
func run(m *Manager) (*Trace, error) {
	tr := NewTrace()
	return tr, m.Run(context.Background(), tr)
}

func TestManagerRunsInAddOrder(t *testing.T) {
	m := NewManager()
	var order []string
	step := func(name string) func(*PassStats) error {
		return func(*PassStats) error {
			order = append(order, name)
			return nil
		}
	}
	// Not alphabetical on purpose: only Add order counts.
	for _, name := range []string{"c", "a", "d", "b"} {
		m.Add(Pass{Name: name, Run: step(name)})
	}
	tr, err := run(m)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, ","); got != "c,a,d,b" {
		t.Errorf("order = %s, want c,a,d,b", got)
	}
	var recorded []string
	for _, st := range tr.Passes() {
		recorded = append(recorded, st.Name)
	}
	if got := strings.Join(recorded, ","); got != "c,a,d,b" {
		t.Errorf("recorded %s, want c,a,d,b", got)
	}
}

func TestManagerAbortsOnPassError(t *testing.T) {
	boom := errors.New("boom")
	ran := false
	m := NewManager()
	m.Add(Pass{Name: "a", Run: func(*PassStats) error { return boom }})
	m.Add(Pass{Name: "b", Run: func(*PassStats) error { ran = true; return nil }})
	tr, err := run(m)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if ran {
		t.Error("pass b ran after a failed")
	}
	// The failing pass itself is still recorded.
	if got := len(tr.Passes()); got != 1 {
		t.Errorf("recorded %d passes, want 1", got)
	}
}

func TestNilTrace(t *testing.T) {
	var tr *Trace
	ran := false
	tr.Time("x", func(st *PassStats) { ran = true; st.Procs = 3 })
	tr.Record(PassStats{Name: "y"})
	if !ran {
		t.Error("Time must run f on a nil trace")
	}
	if tr.Passes() != nil || tr.Total() != 0 {
		t.Error("nil trace must stay empty")
	}
}

func TestTraceTableAggregates(t *testing.T) {
	tr := NewTrace()
	tr.Record(PassStats{Name: "FS", Wall: time.Millisecond, Procs: 10})
	tr.Record(PassStats{Name: "FS", Wall: time.Millisecond, Procs: 5, Notes: "workers=2"})
	tr.Record(PassStats{Name: "parse", Wall: time.Millisecond})
	table := tr.Table()
	if !strings.Contains(table, "FS") || !strings.Contains(table, "workers=2") {
		t.Errorf("table missing aggregated row:\n%s", table)
	}
	// Two FS records aggregate into one row: header + FS + parse + total.
	if got := strings.Count(table, "\n"); got != 4 {
		t.Errorf("table has %d lines, want 4:\n%s", got, table)
	}
	if tr.Total() != 3*time.Millisecond {
		t.Errorf("Total = %v, want 3ms", tr.Total())
	}
}

func TestLevelsLongestPathLayering(t *testing.T) {
	// 0 -> 1 -> 3, 0 -> 2, 2 -> 3, 4 isolated.
	deps := map[int][]int{1: {0}, 2: {0}, 3: {1, 2}}
	levels := Levels(5, func(i int) []int { return deps[i] })
	want := [][]int{{0, 4}, {1, 2}, {3}}
	if len(levels) != len(want) {
		t.Fatalf("levels = %v, want %v", levels, want)
	}
	for i := range want {
		if len(levels[i]) != len(want[i]) {
			t.Fatalf("level %d = %v, want %v", i, levels[i], want[i])
		}
		for j := range want[i] {
			if levels[i][j] != want[i][j] {
				t.Fatalf("level %d = %v, want %v", i, levels[i], want[i])
			}
		}
	}
	if MaxWidth(levels) != 2 {
		t.Errorf("MaxWidth = %d, want 2", MaxWidth(levels))
	}
}

func TestLevelsSelfAndDuplicateDeps(t *testing.T) {
	// Self-deps are ignored; duplicate edges must not wedge the layering.
	levels := Levels(2, func(i int) []int {
		if i == 1 {
			return []int{0, 0, 1}
		}
		return nil
	})
	if len(levels) != 2 || levels[0][0] != 0 || levels[1][0] != 1 {
		t.Errorf("levels = %v, want [[0] [1]]", levels)
	}
}

func TestLevelsPanicsOnCycle(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on cycle")
		}
	}()
	Levels(2, func(i int) []int { return []int{1 - i} })
}

func TestWavefrontRespectsLevelBarriers(t *testing.T) {
	// 3 levels; every item records the level counter value it observed.
	levels := [][]int{{0, 1, 2, 3}, {4, 5}, {6}}
	levelOf := []int32{0, 0, 0, 0, 1, 1, 2}
	var current atomic.Int32
	current.Store(-1)
	var mu sync.Mutex
	seen := make(map[int]int32)
	done := make(map[int32]int)
	Wavefront(levels, 4, func(item int) {
		mu.Lock()
		if done[levelOf[item]] == 0 {
			current.Add(1)
		}
		done[levelOf[item]]++
		seen[item] = current.Load()
		mu.Unlock()
	})
	for item, lv := range seen {
		if lv != levelOf[item] {
			t.Errorf("item %d observed level %d, want %d (barrier violated)", item, lv, levelOf[item])
		}
	}
	if len(seen) != 7 {
		t.Errorf("ran %d items, want 7", len(seen))
	}
}

func TestParallelRunsAll(t *testing.T) {
	var n atomic.Int64
	hit := make([]atomic.Bool, 100)
	Parallel(100, 8, func(i int) {
		n.Add(1)
		hit[i].Store(true)
	})
	if n.Load() != 100 {
		t.Errorf("ran %d items, want 100", n.Load())
	}
	for i := range hit {
		if !hit[i].Load() {
			t.Errorf("item %d never ran", i)
		}
	}
}

func TestWorkers(t *testing.T) {
	if Workers(3) != 3 {
		t.Error("Workers(3) != 3")
	}
	if Workers(0) < 1 || Workers(-1) < 1 {
		t.Error("Workers must default to at least 1")
	}
}

func TestTableCacheColumns(t *testing.T) {
	tr := NewTrace()
	tr.Record(PassStats{Name: "fs", Hits: 3, Misses: 1})
	tr.Record(PassStats{Name: "fs", Hits: 2, Misses: 0, Cached: true})
	tab := tr.Table()
	if !strings.Contains(tab, "cache=5/6") {
		t.Errorf("table missing aggregated cache hits:\n%s", tab)
	}
	if !strings.Contains(tab, "cached=1/2") {
		t.Errorf("table missing cached-run count:\n%s", tab)
	}
}

// TestTimeSamplesMemory: every timed pass records the heap at its exit,
// and a collection inside the pass counts in its GCs, whether the pass
// is timed directly or run by the manager.
func TestTimeSamplesMemory(t *testing.T) {
	tr := NewTrace()
	tr.Time("direct", func(*PassStats) { runtime.GC() })
	m := NewManager()
	m.Add(Pass{Name: "managed", Run: func(*PassStats) error { runtime.GC(); return nil }})
	if err := m.Run(context.Background(), tr); err != nil {
		t.Fatal(err)
	}
	for _, st := range tr.Passes() {
		if st.HeapBytes == 0 {
			t.Errorf("%s: HeapBytes = 0, want the heap at pass exit", st.Name)
		}
		if st.GCs < 1 {
			t.Errorf("%s: GCs = %d, want the runtime.GC inside the pass counted", st.Name, st.GCs)
		}
	}
	if !strings.Contains(tr.Table(), "heap=") {
		t.Errorf("table shows no heap= note:\n%s", tr.Table())
	}
}

// TestTimeSamplesLiveHeap: a pass that retains 8 MiB and collects
// before returning reads at least that much in LiveBytes, the heap its
// last mark found live, and the table renders it as live=.
func TestTimeSamplesLiveHeap(t *testing.T) {
	tr := NewTrace()
	var kept []byte
	tr.Time("retain", func(*PassStats) {
		kept = make([]byte, 8<<20)
		runtime.GC()
	})
	st := tr.Passes()[0]
	if st.LiveBytes < 8<<20 {
		t.Errorf("LiveBytes = %d, want at least the 8 MiB the pass retains", st.LiveBytes)
	}
	if !strings.Contains(tr.Table(), "live=") {
		t.Errorf("table shows no live= note:\n%s", tr.Table())
	}
	runtime.KeepAlive(kept)
}
