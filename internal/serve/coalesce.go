package serve

import (
	"context"
	"fmt"
	"time"

	fsicp "fsicp"
)

// flight is one in-flight computation identical requests attach to.
// The leader fills out and closes done; followers read out afterwards.
type flight struct {
	done chan struct{}
	out  *outcome
}

// coalesceKey identifies computations that may share a result: same
// endpoint kind, same program, same source (by token fingerprint), and
// same effective configuration — including deadline, fuel, and fault
// spec, so a chaos request never answers a clean one.
func coalesceKey(kind reqKind, name, fpr string, cfg fsicp.Config) string {
	return fmt.Sprintf("%d\x00%s\x00%s\x00%+v", kind, name, fpr, cfg)
}

// doCoalesced runs (or joins) the flight for one request. The leader
// computes detached from every client context; followers wait for the
// leader under their own context and return (nil, true) if the client
// gives up first — the flight itself always completes. The second
// result reports whether this request was a follower.
func (s *Server) doCoalesced(ctx context.Context, kind reqKind, name, src string, sw fsicp.SourceSweep, cfg fsicp.Config, shed bool, shedDetail string) (*outcome, bool) {
	key := coalesceKey(kind, name, sw.Fingerprint(), cfg)
	s.flightMu.Lock()
	if f, ok := s.flights[key]; ok {
		s.flightMu.Unlock()
		select {
		case <-f.done:
			s.stats.coalesced.Add(1)
			return f.out, true
		case <-ctx.Done():
			return nil, true
		}
	}
	f := &flight{done: make(chan struct{})}
	s.flights[key] = f
	s.flightMu.Unlock()
	defer func() {
		s.flightMu.Lock()
		delete(s.flights, key)
		s.flightMu.Unlock()
		close(f.done)
	}()
	f.out = s.lead(kind, name, src, sw, cfg, shed, shedDetail)
	return f.out, false
}

// lead is the leader's path: admission, then the computation itself,
// with the panic backstop that turns anything escaping the analysis's
// own recovery layers into a 500 for this flight alone. It never
// returns nil, so followers always find a usable outcome.
func (s *Server) lead(kind reqKind, name, src string, sw fsicp.SourceSweep, cfg fsicp.Config, shed bool, shedDetail string) (out *outcome) {
	defer func() {
		if r := recover(); r != nil {
			s.stats.panics.Add(1)
			out = errOutcome(500, fmt.Sprintf("internal panic: %v", r))
		}
	}()
	// The queue wait is bounded by the server's own deadline, not the
	// client's: a detached flight must terminate even if every client
	// that wanted it has hung up.
	actx, cancel := context.WithTimeout(context.Background(), s.cfg.DefaultTimeout)
	defer cancel()
	release, err := s.admit(actx)
	if err != nil {
		return &outcome{
			status:     429,
			errMsg:     "over capacity: " + err.Error(),
			retryAfter: s.retryAfter(),
		}
	}
	defer release()
	s.resetRetry()
	s.stats.active.Add(1)
	defer s.stats.active.Add(-1)

	start := time.Now()
	out = s.compute(kind, name, src, sw, cfg, shed, shedDetail)
	s.observeLatency(time.Since(start))
	return out
}
