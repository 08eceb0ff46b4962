package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime/metrics"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around the layer's public entry point.
type span struct {
	ID     int
	Name   string
	Parent int // ID of the enclosing span; 0 for an op's root
	Op     int
	Start  time.Duration // since the recorder's origin
	End    time.Duration
	Alloc  uint64 // heap bytes allocated while the span was open
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so the same code path runs traced and untraced.
type recorder struct {
	origin time.Time
	spans  []span
	stack  []int // indexes into spans of the open spans
	op     int
	sample []metrics.Sample
}

func newRecorder() *recorder {
	return &recorder{origin: time.Now(), sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

// heapAllocs reads the cumulative heap allocation counter.
func heapAllocs(s []metrics.Sample) uint64 {
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// beginOp starts a new op; spans opened from here on carry its id.
func (r *recorder) beginOp() {
	if r != nil {
		r.op++
	}
}

// do runs f inside a span called name.
func (r *recorder) do(name string, f func()) {
	if r == nil {
		f()
		return
	}
	parent := 0
	if n := len(r.stack); n > 0 {
		parent = r.spans[r.stack[n-1]].ID
	}
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Name: name, Parent: parent, Op: r.op})
	idx := len(r.spans) - 1
	r.stack = append(r.stack, idx)
	a0 := heapAllocs(r.sample)
	r.spans[idx].Start = time.Since(r.origin)
	f()
	r.spans[idx].End = time.Since(r.origin)
	r.spans[idx].Alloc = heapAllocs(r.sample) - a0
	r.stack = r.stack[:len(r.stack)-1]
}

// find returns the spans of op called name.
func (r *recorder) find(op int, name string) []span {
	var out []span
	for _, s := range r.spans {
		if s.Op == op && s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// total sums the duration and allocation of op's spans called name.
func (r *recorder) total(op int, name string) (time.Duration, uint64) {
	var d time.Duration
	var a uint64
	for _, s := range r.find(op, name) {
		d += s.dur()
		a += s.Alloc
	}
	return d, a
}

// rootSum sums the durations of op's top-level spans.
func (r *recorder) rootSum(op int) time.Duration {
	var d time.Duration
	for _, s := range r.spans {
		if s.Op == op && s.Parent == 0 {
			d += s.dur()
		}
	}
	return d
}

// layerRow is one line of the per-layer table.
type layerRow struct {
	Name   string
	Count  int
	Total  time.Duration
	Self   time.Duration
	AllocB uint64
}

// table aggregates the spans by name. A span's self time is its
// duration minus the durations of its children, which the recorder
// nests strictly (the traced run calls layers serially).
func (r *recorder) table() []layerRow {
	child := make(map[int]time.Duration)
	for _, s := range r.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	rows := make(map[string]*layerRow)
	var order []string
	for _, s := range r.spans {
		row := rows[s.Name]
		if row == nil {
			row = &layerRow{Name: s.Name}
			rows[s.Name] = row
			order = append(order, s.Name)
		}
		row.Count++
		row.Total += s.dur()
		row.Self += s.dur() - child[s.ID]
		row.AllocB += s.Alloc
	}
	out := make([]layerRow, 0, len(order))
	for _, name := range order {
		out = append(out, *rows[name])
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

func writeTable(w io.Writer, rows []layerRow) {
	fmt.Fprintf(w, "layer %-22s %6s %11s %11s %11s\n", "SPAN", "COUNT", "TOTAL_MS", "SELF_MS", "ALLOC_MIB")
	for _, row := range rows {
		fmt.Fprintf(w, "layer %-22s %6d %11.3f %11.3f %11.2f\n",
			row.Name, row.Count, ms(row.Total), ms(row.Self), mib(row.AllocB))
	}
}

// writeChromeTrace writes the spans as a Chrome trace-event file that
// Perfetto and chrome://tracing open: one complete ("X") event per
// span, one thread row per op.
func (r *recorder) writeChromeTrace(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, 0, len(r.spans))
	for _, s := range r.spans {
		evs = append(evs, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Op,
			Ts:   float64(s.Start) / float64(time.Microsecond),
			Dur:  float64(s.dur()) / float64(time.Microsecond),
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "op": s.Op, "alloc_bytes": s.Alloc},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o666)
}
