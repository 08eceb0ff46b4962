// Package faultinject is the deterministic, seeded fault-injection
// harness for the analysis pipeline. An Injector is installed into the
// pass manager and the per-procedure ICP workers; at each protected
// site it may inject a panic, a latency stall, or a simulated
// fuel-exhaustion abort.
//
// Whether a fault fires at a site is a pure function of (seed, fault
// kind, pass name, procedure name) — never of time, scheduling, or
// worker count — so a fault scenario replays exactly: the same seed
// degrades the same procedures for the same reasons at any concurrency,
// and the resilience tests can assert byte-identical reports across
// worker counts.
package faultinject

import (
	"fmt"
	"hash/fnv"
	"time"

	"fsicp/internal/resilience"
)

// Spec configures an Injector. Rates are per-site probabilities in
// [0, 1]; the zero Spec injects nothing. Whether a fault fires at a
// given (pass, procedure) site is a pure function of the seed, so a
// fault scenario replays identically at any worker count. All fields
// are comparable, so a configuration holding a Spec is usable as a map
// key.
type Spec struct {
	Seed int64
	// PanicRate is the probability a site panics (exercising the
	// recover() isolation path).
	PanicRate float64
	// FuelRate is the probability a site aborts with a simulated
	// fuel exhaustion (exercising the budget degradation path).
	FuelRate float64
	// LatencyRate is the probability a site stalls for Latency
	// (exercising deadline and cancellation paths). Latency defaults
	// to 1ms when the rate is positive.
	LatencyRate float64
	Latency     time.Duration
}

// Enabled reports whether the spec injects anything at all.
func (s Spec) Enabled() bool {
	return s.PanicRate > 0 || s.FuelRate > 0 || s.LatencyRate > 0
}

// String renders the spec as its injector acts on it: each rate in
// the shortest decimal that reads back to the same float, and the
// effective latency. Specs that inject different faults render
// differently, so the string (and any %v of a configuration holding
// the spec) serves as a cache or coalescing key.
func (s Spec) String() string {
	return fmt.Sprintf("seed=%d panic=%g fuel=%g latency=%g/%s",
		s.Seed, s.PanicRate, s.FuelRate, s.LatencyRate, s.latency())
}

func (s Spec) latency() time.Duration {
	if s.Latency > 0 {
		return s.Latency
	}
	return time.Millisecond
}

// Injector injects faults per its Spec. A nil *Injector is valid and
// injects nothing.
type Injector struct {
	spec Spec
}

// New returns an injector for spec, or nil when the spec injects
// nothing (so callers can install it unconditionally).
func New(spec Spec) *Injector {
	if !spec.Enabled() {
		return nil
	}
	return &Injector{spec: spec}
}

// At is the injection site hook: called at the start of a protected
// pass or per-procedure worker. Latency fires first (it composes with
// the other kinds), then simulated fuel exhaustion, then a panic. The
// fuel and panic injections abort via panic and rely on the caller's
// recover() wrapper — the same wrapper that isolates real faults.
func (in *Injector) At(pass, proc string) {
	if in == nil {
		return
	}
	if in.roll("latency", pass, proc) < in.spec.LatencyRate {
		time.Sleep(in.spec.latency())
	}
	if in.roll("fuel", pass, proc) < in.spec.FuelRate {
		resilience.TripFuel(fmt.Sprintf("injected at %s/%s", pass, proc))
	}
	if in.roll("panic", pass, proc) < in.spec.PanicRate {
		panic(fmt.Sprintf("faultinject: injected panic at %s/%s", pass, proc))
	}
}

// Hook returns At as a plain function, or nil for a nil injector —
// the shape icp.Options.Faults accepts without importing this package.
func (in *Injector) Hook() func(pass, proc string) {
	if in == nil {
		return nil
	}
	return in.At
}

// roll maps (seed, kind, pass, proc) to a uniform float in [0, 1).
func (in *Injector) roll(kind, pass, proc string) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d\x00%s\x00%s\x00%s", in.spec.Seed, kind, pass, proc)
	// 53 mantissa bits give a uniform dyadic rational in [0, 1).
	return float64(h.Sum64()>>11) / float64(1<<53)
}
