package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minPercentileSamples is the sample count below which a tail
// percentile is not reported: with fewer samples the p90 rests on
// fewer than ten observations beyond it.
const minPercentileSamples = 100

// median returns the median of xs (the mean of the two middle values
// for an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of xs. ok is false when xs has fewer than minPercentileSamples
// samples, so a tail percentile is never reported from a short run.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	if len(xs) < minPercentileSamples || p <= 0 || p > 100 {
		return 0, false
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[rank-1], true
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mib(bytes uint64) float64 { return float64(bytes) / (1 << 20) }

// named is one metric as the human-readable summary prints it: the
// workload's own name for it, its value and unit, and the sample
// count behind it.
type named struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"samples"`
}

func (m named) String() string {
	return fmt.Sprintf("%-18s %14.4f %-7s n=%d", m.Name, m.Value, m.Unit, m.N)
}

// latency summarizes request latencies as <prefix>_p50_ms, plus
// <prefix>_p90_ms when there are enough samples for it.
func latency(prefix string, xs []float64) []named {
	out := []named{{Name: prefix + "_p50_ms", Value: median(xs), Unit: "ms", N: len(xs)}}
	if p, ok := percentile(xs, 90); ok {
		out = append(out, named{Name: prefix + "_p90_ms", Value: p, Unit: "ms", N: len(xs)})
	}
	return out
}
