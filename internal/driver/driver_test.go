package driver

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
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

// dagOf builds an ascending DAG over n items from a dependency list:
// deps[i] lists the items that must finish before i starts.
func dagOf(n int, deps map[int][]int) *DAG {
	var from, to []int32
	for i := 0; i < n; i++ {
		for _, d := range deps[i] {
			from, to = append(from, int32(d)), append(to, int32(i))
		}
	}
	return NewDAG(n, false, from, to)
}

func TestLevelsLongestPathLayering(t *testing.T) {
	// 0 -> 1 -> 3, 0 -> 2, 2 -> 3, 4 isolated: layers {0, 4}, {1, 2}, {3}.
	d := dagOf(5, map[int][]int{1: {0}, 2: {0}, 3: {1, 2}})
	if d.Depth != 3 || d.Width != 2 {
		t.Errorf("Depth, Width = %d, %d, want 3, 2", d.Depth, d.Width)
	}
	// The reversed DAG has the same longest path; its layers are
	// {3, 4}, {1, 2}, {0}.
	r := NewDAG(5, true, []int32{1, 2, 3, 3}, []int32{0, 0, 1, 2})
	if r.Depth != 3 || r.Width != 2 {
		t.Errorf("reversed: Depth, Width = %d, %d, want 3, 2", r.Depth, r.Width)
	}
}

func TestLevelsSelfAndDuplicateDeps(t *testing.T) {
	// Self-deps are ignored; duplicate edges must not wedge the layering.
	d := dagOf(2, map[int][]int{1: {0, 0, 1}})
	if d.Depth != 2 || d.Width != 1 {
		t.Errorf("Depth, Width = %d, %d, want 2, 1", d.Depth, d.Width)
	}
	if d.Preds[1] != 2 {
		t.Errorf("Preds[1] = %d, want 2 (duplicates kept, self-edge dropped)", d.Preds[1])
	}
	var ran []int
	Schedule(context.Background(), d, 2, func(i int) { ran = append(ran, i) })
	if len(ran) != 2 || ran[0] != 0 || ran[1] != 1 {
		t.Errorf("ran %v, want [0 1]", ran)
	}
}

func TestLevelsPanicsOnCycle(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on cycle")
		}
	}()
	dagOf(2, map[int][]int{0: {1}, 1: {0}})
}

// randomDAG returns a DAG over n items with about deg edges per item,
// each running in the item order (descending when desc is set).
func randomDAG(rng *rand.Rand, n, deg int, desc bool) *DAG {
	var from, to []int32
	for k := 0; k < n*deg; k++ {
		a, b := int32(rng.Intn(n)), int32(rng.Intn(n))
		if a > b {
			a, b = b, a
		}
		if desc {
			a, b = b, a
		}
		from, to = append(from, a), append(to, b)
	}
	return NewDAG(n, desc, from, to)
}

// TestScheduleRunsAfterPredecessors: every item runs exactly once, and
// only after each of its predecessors has finished, checked edge by
// edge, in both directions and at several worker counts.
func TestScheduleRunsAfterPredecessors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, desc := range []bool{false, true} {
		for _, workers := range []int{1, 2, 4, 8} {
			d := randomDAG(rng, 300, 3, desc)
			preds := make([][]int32, d.Len())
			for i := 0; i < d.Len(); i++ {
				for _, s := range d.Succs(i) {
					preds[s] = append(preds[s], int32(i))
				}
			}
			runs := make([]atomic.Int32, d.Len())
			finished := make([]atomic.Bool, d.Len())
			var violations atomic.Int32
			Schedule(context.Background(), d, workers, func(i int) {
				runs[i].Add(1)
				for _, p := range preds[i] {
					if !finished[p].Load() {
						violations.Add(1)
					}
				}
				finished[i].Store(true)
			})
			if v := violations.Load(); v != 0 {
				t.Errorf("desc=%t workers=%d: %d items started before a predecessor finished", desc, workers, v)
			}
			for i := range runs {
				if n := runs[i].Load(); n != 1 {
					t.Errorf("desc=%t workers=%d: item %d ran %d times, want 1", desc, workers, i, n)
				}
			}
		}
	}
}

// TestScheduleHasNoLevelBarrier: with 2 workers, item 2 depends on
// item 1, and item 3, an unrelated root, blocks until item 2 has
// finished. A level barrier would hold item 2 back until item 3's
// level completes, so the run could not finish.
func TestScheduleHasNoLevelBarrier(t *testing.T) {
	d := dagOf(4, map[int][]int{1: {0}, 2: {1}})
	item2 := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		Schedule(context.Background(), d, 2, func(i int) {
			switch i {
			case 2:
				close(item2)
			case 3:
				select {
				case <-item2:
				case <-time.After(10 * time.Second):
					t.Error("item 3 waited 10s for item 2: a barrier held item 2 back")
				}
			}
		})
	}()
	select {
	case <-finished:
	case <-time.After(20 * time.Second):
		t.Fatal("Schedule did not return")
	}
}

// TestScheduleSerialRunsInItemOrder: with one worker the items run in
// the item order — ascending, or descending for a descending DAG — on
// the caller's goroutine.
func TestScheduleSerialRunsInItemOrder(t *testing.T) {
	caller := goid()
	for _, desc := range []bool{false, true} {
		d := randomDAG(rand.New(rand.NewSource(2)), 50, 2, desc)
		var order []int
		Schedule(context.Background(), d, 1, func(i int) {
			if g := goid(); g != caller {
				t.Errorf("item %d ran on goroutine %d, want the caller's %d", i, g, caller)
			}
			order = append(order, i)
		})
		for k, i := range order {
			want := k
			if desc {
				want = d.Len() - 1 - k
			}
			if i != want {
				t.Fatalf("desc=%t: order %v, want item order", desc, order)
			}
		}
		if len(order) != d.Len() {
			t.Errorf("desc=%t: ran %d items, want %d", desc, len(order), d.Len())
		}
	}
}

// goid is the current goroutine's ID, parsed from its stack header
// ("goroutine 7 [running]:").
func goid() int {
	var buf [64]byte
	s := strings.TrimPrefix(string(buf[:runtime.Stack(buf[:], false)]), "goroutine ")
	id, err := strconv.Atoi(s[:strings.IndexByte(s, ' ')])
	if err != nil {
		panic(err)
	}
	return id
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

// TestTimeSamplesAllocatedBytes: a pass that allocates 8 MiB reads at
// least that much in AllocBytes, the heap allocated during the pass,
// whether timed directly or run by the manager, and the table renders
// it as alloc=.
func TestTimeSamplesAllocatedBytes(t *testing.T) {
	var sink [][]byte
	alloc := func() {
		for i := 0; i < 8; i++ {
			sink = append(sink, make([]byte, 1<<20))
		}
	}
	tr := NewTrace()
	tr.Time("direct", func(*PassStats) { alloc() })
	m := NewManager()
	m.Add(Pass{Name: "managed", Run: func(*PassStats) error { alloc(); return nil }})
	if err := m.Run(context.Background(), tr); err != nil {
		t.Fatal(err)
	}
	for _, st := range tr.Passes() {
		if st.AllocBytes < 8<<20 {
			t.Errorf("%s: AllocBytes = %d, want at least the 8 MiB the pass allocates", st.Name, st.AllocBytes)
		}
	}
	if !strings.Contains(tr.Table(), "alloc=") {
		t.Errorf("table shows no alloc= note:\n%s", tr.Table())
	}
	runtime.KeepAlive(sink)
}
