package driver

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a configured worker count: n when positive,
// otherwise GOMAXPROCS.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// DAG is a dependency DAG over items 0..n-1 in the form Schedule reads
// it: each item's predecessor count and successor list. Its item order
// is topological — every edge runs from a lower item to a higher one,
// or from a higher to a lower one when Descending is set — so running
// the items in that order honours every edge. Depth and Width describe
// its longest-path layering: the number of layers (an item's layer is
// the length of its longest predecessor chain) and the largest layer's
// item count, the DAG's peak available parallelism.
type DAG struct {
	Preds      []int32 // Preds[i] counts the edges into i
	Descending bool
	Depth      int
	Width      int

	off, succ []int32 // Succs(i) is succ[off[i]:off[i+1]]
}

// NewDAG builds the DAG over items 0..n-1 whose k-th edge runs from
// from[k] to to[k]: from[k] must finish before to[k] starts. Self-edges
// are dropped and duplicate edges kept. Every other edge must run in
// the item order (up, or down when descending), which also rules out
// cycles; NewDAG panics on one that does not.
func NewDAG(n int, descending bool, from, to []int32) *DAG {
	d := &DAG{Preds: make([]int32, n), Descending: descending, off: make([]int32, n+1)}
	for k, f := range from {
		t := to[k]
		if f == t {
			continue
		}
		if t < f != descending {
			panic(fmt.Sprintf("driver.NewDAG: edge %d→%d runs against the item order", f, t))
		}
		d.off[f+1]++
		d.Preds[t]++
	}
	for i := 0; i < n; i++ {
		d.off[i+1] += d.off[i]
	}
	d.succ = make([]int32, d.off[n])
	next := append([]int32(nil), d.off[:n]...)
	for k, f := range from {
		if t := to[k]; f != t {
			d.succ[next[f]] = t
			next[f]++
		}
	}
	// Layers in one pass over the topological item order: each item's
	// layer is final before any successor reads it.
	layer := make([]int32, n)
	for k := 0; k < n; k++ {
		i := d.item(k)
		for _, s := range d.Succs(i) {
			layer[s] = max(layer[s], layer[i]+1)
		}
	}
	for _, l := range layer {
		d.Depth = max(d.Depth, int(l)+1)
	}
	width := make([]int, d.Depth)
	for _, l := range layer {
		width[l]++
		d.Width = max(d.Width, width[l])
	}
	return d
}

// Len is the item count.
func (d *DAG) Len() int { return len(d.Preds) }

// Succs lists the heads of the edges out of item i.
func (d *DAG) Succs(i int) []int32 { return d.succ[d.off[i]:d.off[i+1]] }

// item is the k-th item of the topological item order.
func (d *DAG) item(k int) int {
	if d.Descending {
		return d.Len() - 1 - k
	}
	return k
}

// Schedule runs fn(item) once for every item of d on at most workers
// goroutines (0 = GOMAXPROCS), starting each item as soon as its last
// predecessor has finished: there is no barrier between layers. fn may
// read only what the item's predecessors wrote and write only what no
// concurrently running item touches. A predecessor's writes happen
// before its successor starts: the last predecessor to finish hands
// the successor on through an atomic counter, and through the ready
// queue when another worker picks it up.
//
// A worker that finishes an item continues with one successor it made
// ready and queues the others, so a chain of dependent items runs on
// one goroutine without a queue round trip per item.
//
// Once ctx ends no item starts; the call returns with every worker
// exited, and the unstarted items are left for the caller to answer.
// With one worker the items run in the topological item order on the
// caller's goroutine.
func Schedule(ctx context.Context, d *DAG, workers int, fn func(item int)) {
	n := d.Len()
	workers = min(Workers(workers), n)
	done := ctx.Done()
	if workers <= 1 {
		for k := 0; k < n; k++ {
			if done != nil && ctx.Err() != nil {
				return
			}
			fn(d.item(k))
		}
		return
	}

	pending := make([]atomic.Int32, n)
	// Every item is queued at most once, so a queue of n never blocks.
	ready := make(chan int32, n)
	for k := 0; k < n; k++ {
		i := d.item(k)
		pending[i].Store(d.Preds[i])
		if d.Preds[i] == 0 {
			ready <- int32(i)
		}
	}
	var finished atomic.Int32
	work := func() {
		for {
			var it int32
			var ok bool
			select {
			case it, ok = <-ready:
				if !ok {
					return // every item finished
				}
			case <-done:
				return
			}
			for it >= 0 {
				if done != nil && ctx.Err() != nil {
					return
				}
				fn(int(it))
				next := int32(-1)
				for _, s := range d.Succs(int(it)) {
					if pending[s].Add(-1) != 0 {
						continue
					}
					if next < 0 {
						next = s
					} else {
						ready <- s
					}
				}
				if finished.Add(1) == int32(n) {
					close(ready)
				}
				it = next
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// Parallel runs fn(0..n-1) concurrently on at most workers goroutines:
// a DAG without edges, for embarrassingly parallel passes.
func Parallel(n, workers int, fn func(item int)) {
	ParallelCtx(context.Background(), n, workers, fn)
}

// ParallelCtx is Parallel under a context, with Schedule's
// cancellation behaviour: once ctx ends no item starts.
func ParallelCtx(ctx context.Context, n, workers int, fn func(item int)) {
	workers = min(Workers(workers), n)
	done := ctx.Done()
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if done != nil && ctx.Err() != nil {
				return
			}
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if done != nil && ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
