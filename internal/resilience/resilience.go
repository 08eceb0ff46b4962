// Package resilience is the failure model of the analysis pipeline:
// structured degradation records, sentinel aborts, and the cooperative
// fuel/deadline budget the intraprocedural propagator polls.
//
// The design exploits the paper's own structure. The flow-sensitive
// method already keeps a precomputed flow-insensitive solution around as
// the sound fallback for call-graph back edges; the same solution is a
// sound answer for *any* procedure, so a procedure whose flow-sensitive
// analysis is cancelled, over-budget, or crashed can fall back to it
// instead of failing the whole run. This package supplies the vocabulary
// (Reason, Degradation), the controlled way to stop a procedure's
// analysis midway (Budget, Trip*, sentinel aborts), and the classifier
// the recover() wrappers use to tell a resource abort from a genuine
// panic.
package resilience

import (
	"context"
	"fmt"
	"sort"
)

// Reason says why a procedure fell back to the flow-insensitive
// solution (or, for pipeline passes, why the pass was abandoned).
type Reason string

const (
	// ReasonPanic: the analysis panicked (a real bug or an injected
	// fault) and was isolated by a recover() wrapper.
	ReasonPanic Reason = "panic"
	// ReasonFuel: the per-procedure fuel budget was exhausted before
	// the intraprocedural fixpoint completed.
	ReasonFuel Reason = "fuel-exhausted"
	// ReasonCancelled: the analysis context was cancelled.
	ReasonCancelled Reason = "cancelled"
	// ReasonDeadline: the analysis context's deadline passed.
	ReasonDeadline Reason = "deadline"
	// ReasonShed: the serving layer answered the whole request from the
	// flow-insensitive solution because the daemon was over its load
	// watermark. Per-request rather than per-procedure: the request's
	// Degradation record carries an empty Proc. Like every other reason
	// the answer stays sound; it only loses flow-sensitive precision.
	ReasonShed Reason = "load-shed"
	// ReasonCacheCorrupt: a persistent-cache entry failed validation
	// (truncated, bit-flipped, version-skewed, or mis-keyed) and was
	// dropped; the procedure was recomputed from scratch. Unlike the
	// reasons above this loses no precision at all — only the cached
	// work — so these records are observability, not soundness events,
	// and stay out of the analysis result's degradation list.
	ReasonCacheCorrupt Reason = "cache-corrupt"
)

// Degradation records one procedure (or whole pass, when Proc is empty)
// that fell back to the flow-insensitive solution instead of completing
// its flow-sensitive analysis. The result remains sound — the fallback
// only loses precision — so a degraded run is an answer, not an error.
type Degradation struct {
	Proc   string `json:"proc,omitempty"` // procedure that degraded ("" for a whole pass)
	Pass   string `json:"pass"`           // pass during which the degradation happened
	Reason Reason `json:"reason"`
	Detail string `json:"detail,omitempty"` // free-form diagnostic (sanitised panic message, ...)
}

func (d Degradation) String() string {
	who := d.Proc
	if who == "" {
		who = "<pass>"
	}
	s := fmt.Sprintf("%s: %s during %s", who, d.Reason, d.Pass)
	if d.Detail != "" {
		s += " (" + d.Detail + ")"
	}
	return s
}

// Sort orders degradations deterministically (procedure, then pass,
// then reason), so reports are byte-identical regardless of which
// worker recorded what first.
func Sort(ds []Degradation) {
	sort.Slice(ds, func(i, j int) bool {
		if ds[i].Proc != ds[j].Proc {
			return ds[i].Proc < ds[j].Proc
		}
		if ds[i].Pass != ds[j].Pass {
			return ds[i].Pass < ds[j].Pass
		}
		return ds[i].Reason < ds[j].Reason
	})
}

// abort is the sentinel panic value for controlled resource stops. It
// is distinguishable from genuine panics by Classify.
type abort struct {
	reason Reason
	detail string
}

// TripFuel abandons the current procedure's analysis with a
// fuel-exhaustion abort. It must only be called under a recover()
// wrapper that understands resilience aborts (Classify).
func TripFuel(detail string) {
	panic(abort{ReasonFuel, detail})
}

// TripCtx abandons the current procedure's analysis because its context
// ended; err is ctx.Err().
func TripCtx(err error) {
	reason := ReasonCancelled
	if err == context.DeadlineExceeded {
		reason = ReasonDeadline
	}
	panic(abort{reason, err.Error()})
}

// Classify maps a recovered panic value to a degradation reason: the
// sentinel aborts keep their reason, anything else is a genuine panic.
func Classify(r any) (Reason, string) {
	if a, ok := r.(abort); ok {
		return a.reason, a.detail
	}
	return ReasonPanic, fmt.Sprintf("%v", r)
}

// pollInterval bounds how many steps pass between context polls: small
// enough that cancellation is prompt, large enough that the poll is
// invisible in the profile.
const pollInterval = 1024

// Budget is the cooperative meter one procedure's intraprocedural
// analysis runs under: a bounded number of propagation steps (fuel) and
// the run's context. The propagator calls Step for every unit of work;
// when the fuel runs out, or the context ends, Step panics with a
// sentinel abort that the per-procedure recover() wrapper converts into
// a degradation to the flow-insensitive solution.
//
// Fuel metering is deterministic: a procedure's step sequence depends
// only on its SSA form and entry environment, never on scheduling, so
// the same budget exhausts at the same step for every worker count. A
// nil *Budget is valid and meters nothing.
type Budget struct {
	ctx  context.Context
	fuel int64 // 0 = unlimited
	used int64
	poll int64
}

// NewBudget returns a budget of fuel steps under ctx. It returns nil —
// the no-op budget — when there is nothing to meter (no fuel bound and
// a context that cannot end).
func NewBudget(ctx context.Context, fuel int) *Budget {
	if ctx == nil {
		ctx = context.Background()
	}
	if fuel <= 0 && ctx.Done() == nil {
		return nil
	}
	return &Budget{ctx: ctx, fuel: int64(fuel), poll: pollInterval}
}

// Step consumes n units of fuel and periodically polls the context.
// Panics with a sentinel abort on exhaustion or cancellation; no-op on
// a nil budget.
func (b *Budget) Step(n int) {
	if b == nil {
		return
	}
	b.used += int64(n)
	if b.fuel > 0 && b.used > b.fuel {
		TripFuel(fmt.Sprintf("budget %d steps", b.fuel))
	}
	b.poll -= int64(n)
	if b.poll <= 0 {
		b.poll = pollInterval
		if err := b.ctx.Err(); err != nil {
			TripCtx(err)
		}
	}
}

// Used reports the fuel consumed so far.
func (b *Budget) Used() int64 {
	if b == nil {
		return 0
	}
	return b.used
}
