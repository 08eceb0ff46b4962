package icp_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"fsicp/internal/faultinject"
	"fsicp/internal/icp"
	"fsicp/internal/interp"
	"fsicp/internal/progen"
)

// resultKey renders everything deterministic about a result —
// constants, per-site values, liveness, and the degradation report —
// so two runs can be compared byte-for-byte.
func resultKey(r *icp.Result) string {
	var b strings.Builder
	ctx := r.Ctx
	for i, p := range ctx.CG.Reachable {
		fmt.Fprintf(&b, "proc %s dead=%v", p.Name, r.Dead(i))
		for _, f := range p.Params {
			if v, ok := r.EntryConstant(p, f); ok {
				fmt.Fprintf(&b, " %s=%s", f.Name, v)
			}
		}
		b.WriteByte('\n')
		for _, call := range ctx.Prog.FuncOf[p].Calls {
			fmt.Fprintf(&b, "  site->%s %v\n", call.Callee.Name, argVals(r, call))
		}
	}
	for _, d := range r.Degradations {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}

var resilienceMethods = []struct {
	name    string
	m       icp.Method
	rets    bool
	refresh bool
}{
	{"fs", icp.FlowSensitive, false, false},
	{"fs-returns", icp.FlowSensitive, true, false},
	{"fs-returns-refresh", icp.FlowSensitive, true, true},
	{"iter", icp.FlowSensitiveIterative, false, false},
}

// TestInjectedFaultsSoundness: across a matrix of programs, fault
// seeds, and methods, injected panics and fuel exhaustion degrade
// procedures to the flow-insensitive solution — and the degraded
// result still passes the interpreter-backed soundness check.
func TestInjectedFaultsSoundness(t *testing.T) {
	for seed := int64(4200); seed < 4210; seed++ {
		src := progen.Generate(progen.Config{Seed: seed, AllowRecursion: seed%2 == 0, AllowFloats: true})
		ctx := compileSrc(t, src)
		run := interp.Run(ctx.Prog, interp.Options{TraceGlobalsAtCalls: true})
		if run.Err != nil {
			t.Fatalf("seed %d: %v", seed, run.Err)
		}
		for _, mm := range resilienceMethods {
			for _, spec := range []faultinject.Spec{
				{Seed: seed, PanicRate: 0.3},
				{Seed: seed, FuelRate: 0.3},
				{Seed: seed, PanicRate: 0.2, FuelRate: 0.2},
				{Seed: seed, PanicRate: 1},
			} {
				inj := faultinject.New(spec)
				r := icp.Analyze(ctx, icp.Options{
					Method:          mm.m,
					ReturnConstants: mm.rets,
					ReturnsRefresh:  mm.refresh,
					PropagateFloats: true,
					Faults:          inj.Hook(),
					FaultKey:        spec.String(),
				})
				if bad := soundnessCheck(r, run.Trace); len(bad) > 0 {
					t.Errorf("seed %d %s %s: unsound degraded result: %s\n%s",
						seed, mm.name, spec, bad[0], src)
				}
				if spec.PanicRate == 1 && len(r.Degradations) == 0 {
					t.Errorf("seed %d %s: PanicRate=1 produced no degradations", seed, mm.name)
				}
			}
		}
	}
}

// TestFaultDeterminismAcrossWorkers: an identical fault seed yields a
// byte-identical result (solution and degradation report) for every
// worker count.
func TestFaultDeterminismAcrossWorkers(t *testing.T) {
	for seed := int64(4300); seed < 4306; seed++ {
		src := progen.Generate(progen.Config{Seed: seed, AllowRecursion: true, AllowFloats: true, Procs: 10})
		ctx := compileSrc(t, src)
		spec := faultinject.Spec{Seed: seed, PanicRate: 0.25, FuelRate: 0.25}
		for _, mm := range resilienceMethods {
			var want string
			for _, workers := range []int{1, 4, 8} {
				inj := faultinject.New(spec)
				r := icp.Analyze(ctx, icp.Options{
					Method:          mm.m,
					ReturnConstants: mm.rets,
					ReturnsRefresh:  mm.refresh,
					PropagateFloats: true,
					Workers:         workers,
					Faults:          inj.Hook(),
					FaultKey:        spec.String(),
				})
				got := resultKey(r)
				if want == "" {
					want = got
					continue
				}
				if got != want {
					t.Errorf("seed %d %s: workers=%d diverged from workers=1\n%s", seed, mm.name, workers, src)
				}
			}
		}
	}
}

// TestFuelBudgetSoundness: a fuel budget small enough to trip degrades
// procedures but never produces an unsound answer, and the degradation
// report names the budget.
func TestFuelBudgetSoundness(t *testing.T) {
	for seed := int64(4400); seed < 4408; seed++ {
		src := progen.Generate(progen.Config{Seed: seed, AllowRecursion: seed%2 == 0, AllowFloats: true})
		ctx := compileSrc(t, src)
		run := interp.Run(ctx.Prog, interp.Options{TraceGlobalsAtCalls: true})
		if run.Err != nil {
			t.Fatalf("seed %d: %v", seed, run.Err)
		}
		for _, mm := range resilienceMethods {
			for _, fuel := range []int{1, 25, 1 << 20} {
				r := icp.Analyze(ctx, icp.Options{
					Method:          mm.m,
					ReturnConstants: mm.rets,
					ReturnsRefresh:  mm.refresh,
					PropagateFloats: true,
					Fuel:            fuel,
				})
				if bad := soundnessCheck(r, run.Trace); len(bad) > 0 {
					t.Errorf("seed %d %s fuel=%d: unsound: %s\n%s", seed, mm.name, fuel, bad[0], src)
				}
				switch {
				case fuel == 1 && len(r.Degradations) == 0:
					t.Errorf("seed %d %s: fuel=1 degraded nothing", seed, mm.name)
				case fuel == 1<<20 && len(r.Degradations) != 0:
					t.Errorf("seed %d %s: huge budget still degraded: %v", seed, mm.name, r.Degradations)
				}
				for _, d := range r.Degradations {
					if d.Reason != "fuel-exhausted" {
						t.Errorf("seed %d %s: unexpected reason %q", seed, mm.name, d.Reason)
					}
				}
			}
		}
	}
}

// TestFuelDeterminism: fuel exhaustion is metered on analysis steps,
// not wall time, so the same budget degrades the same procedures at
// every worker count.
func TestFuelDeterminism(t *testing.T) {
	src := progen.Generate(progen.Config{Seed: 4500, AllowRecursion: true, AllowFloats: true, Procs: 10})
	ctx := compileSrc(t, src)
	for _, mm := range resilienceMethods {
		var want string
		for _, workers := range []int{1, 4, 8} {
			for run := 0; run < 2; run++ {
				r := icp.Analyze(ctx, icp.Options{
					Method:          mm.m,
					ReturnConstants: mm.rets,
					ReturnsRefresh:  mm.refresh,
					PropagateFloats: true,
					Workers:         workers,
					Fuel:            40,
				})
				got := resultKey(r)
				if want == "" {
					want = got
					continue
				}
				if got != want {
					t.Fatalf("%s: fuel degradation not deterministic (workers=%d run=%d)", mm.name, workers, run)
				}
			}
		}
	}
}

// TestCancelledContextDegradesEverything: a context that is already
// cancelled degrades every reachable procedure (the FI solution is
// still computed and is sound) rather than failing or hanging.
func TestCancelledContextDegradesEverything(t *testing.T) {
	for seed := int64(4600); seed < 4605; seed++ {
		src := progen.Generate(progen.Config{Seed: seed, AllowRecursion: true, AllowFloats: true})
		ctx := compileSrc(t, src)
		run := interp.Run(ctx.Prog, interp.Options{TraceGlobalsAtCalls: true})
		if run.Err != nil {
			t.Fatalf("seed %d: %v", seed, run.Err)
		}
		cctx, cancel := context.WithCancel(context.Background())
		cancel()
		for _, mm := range resilienceMethods {
			r := icp.Analyze(ctx, icp.Options{
				Method:          mm.m,
				ReturnConstants: mm.rets,
				ReturnsRefresh:  mm.refresh,
				PropagateFloats: true,
				Ctx:             cctx,
			})
			if bad := soundnessCheck(r, run.Trace); len(bad) > 0 {
				t.Errorf("seed %d %s: cancelled run unsound: %s", seed, mm.name, bad[0])
			}
			degraded := map[string]bool{}
			for _, d := range r.Degradations {
				degraded[d.Proc] = true
				if d.Reason != "cancelled" {
					t.Errorf("seed %d %s: reason %q, want cancelled", seed, mm.name, d.Reason)
				}
			}
			for _, p := range ctx.CG.Reachable {
				if !degraded[p.Name] {
					t.Errorf("seed %d %s: %s not degraded under a dead context", seed, mm.name, p.Name)
				}
			}
		}
	}
}

// TestDegradationOnlyLosesPrecision: every constant a degraded run
// reports is also reported by the clean run of the same method — a
// fault can only take facts away, never invent them.
func TestDegradationOnlyLosesPrecision(t *testing.T) {
	for seed := int64(4700); seed < 4708; seed++ {
		src := progen.Generate(progen.Config{Seed: seed, AllowRecursion: seed%2 == 0, AllowFloats: true})
		ctx := compileSrc(t, src)
		for _, mm := range resilienceMethods {
			clean := icp.Analyze(ctx, icp.Options{Method: mm.m, ReturnConstants: mm.rets, ReturnsRefresh: mm.refresh, PropagateFloats: true})
			spec := faultinject.Spec{Seed: seed, PanicRate: 0.4, FuelRate: 0.2}
			inj := faultinject.New(spec)
			faulted := icp.Analyze(ctx, icp.Options{
				Method: mm.m, ReturnConstants: mm.rets, ReturnsRefresh: mm.refresh, PropagateFloats: true,
				Faults: inj.Hook(), FaultKey: spec.String(),
			})
			for i, p := range ctx.CG.Reachable {
				if clean.Dead(i) {
					// A degraded procedure loses dead-code facts too; its
					// constants are then vacuous and not comparable.
					continue
				}
				for _, f := range p.Params {
					fv, ok := faulted.EntryConstant(p, f)
					if !ok {
						continue
					}
					cv, ok := clean.EntryConstant(p, f)
					if !ok || cv != fv {
						t.Errorf("seed %d %s: faulted run invented %s.%s=%s (clean: %v %q)",
							seed, mm.name, p.Name, f.Name, fv, ok, cv)
					}
				}
			}
		}
	}
}
