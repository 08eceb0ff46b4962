package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	fsicp "fsicp"
	"fsicp/internal/report"
)

// Request is the body of POST /analyze and POST /update.
type Request struct {
	// Program names the warm session; defaults to a name derived from
	// the source fingerprint, so anonymous one-shot requests still
	// coalesce and reuse.
	Program string `json:"program,omitempty"`
	// Source is the MiniFort program text. Required.
	Source string `json:"source"`
	// Method is "fs" (default), "fi", or "iter".
	Method string `json:"method,omitempty"`
	// Floats toggles float propagation; defaults to true.
	Floats *bool `json:"floats,omitempty"`
	// Returns enables the return-constant extension; ReturnsRefresh
	// additionally feeds the summaries back into entry environments.
	Returns        bool `json:"returns,omitempty"`
	ReturnsRefresh bool `json:"returnsRefresh,omitempty"`
	// TimeoutMs is the analysis deadline (clamped to the server's
	// MaxTimeout; 0 means the server default). Expiry degrades, never
	// fails.
	TimeoutMs int `json:"timeoutMs,omitempty"`
	// Fuel bounds per-procedure propagation steps (0 = server default).
	Fuel int `json:"fuel,omitempty"`
	// Faults is the chaos-testing block; rejected unless the server
	// was started with AllowFaults.
	Faults *FaultRequest `json:"faults,omitempty"`
}

// FaultRequest mirrors fsicp.FaultSpec over the wire.
type FaultRequest struct {
	Seed        int64   `json:"seed"`
	PanicRate   float64 `json:"panicRate,omitempty"`
	FuelRate    float64 `json:"fuelRate,omitempty"`
	LatencyRate float64 `json:"latencyRate,omitempty"`
	LatencyUs   int64   `json:"latencyUs,omitempty"`
}

// Response is the body of a 200 from /analyze or /update. Report is
// the determinism surface — byte-identical to cmd/fsicp -json for the
// same source and effective configuration; the envelope around it is
// serving observability (versions, reuse, coalescing) that
// legitimately varies run to run.
type Response struct {
	Program     string `json:"program"`
	Fingerprint string `json:"fingerprint"`
	Version     int    `json:"version"`
	Method      string `json:"method"`
	// Shed marks an answer served from the flow-insensitive solution
	// under load; the Report's Degradations carry the structured
	// record ("load-shed").
	Shed bool `json:"shed,omitempty"`
	// Coalesced marks a response that shared another request's
	// computation.
	Coalesced bool `json:"coalesced,omitempty"`
	// PoolReused marks an answer from an already-warm session.
	PoolReused bool `json:"poolReused,omitempty"`
	// ProcsReused counts procedures whose previous summary stood (same
	// key, same entry environment); CacheHits and CacheMisses count
	// value-cache lookups for the others (Analysis.Incremental).
	ProcsReused int `json:"procsReused"`
	CacheHits   int `json:"cacheHits"`
	CacheMisses int `json:"cacheMisses"`
	// Deltas (update only) lists constant changes against the previous
	// answer under the same result configuration.
	Deltas []string      `json:"deltas,omitempty"`
	Report report.Report `json:"report"`
}

// QueryResponse is the body of a 200 from GET /query: the last report
// served for (program, result configuration), verbatim.
type QueryResponse struct {
	Program     string          `json:"program"`
	Fingerprint string          `json:"fingerprint"`
	Version     int             `json:"version"`
	Report      json.RawMessage `json:"report"`
}

// ErrorResponse is the body of every non-200.
type ErrorResponse struct {
	Error string `json:"error"`
	// RetryAfterMs accompanies 429/503: how long to back off. The
	// Retry-After header carries the same value in (rounded-up)
	// seconds.
	RetryAfterMs int64 `json:"retryAfterMs,omitempty"`
}

// Handler returns the daemon's HTTP surface:
//
//	POST /analyze  — create or reuse a warm session, analyze, report
//	POST /update   — new source version for a known program, report + deltas
//	GET  /query    — last report for (program, configuration), no analysis
//	GET  /healthz  — liveness (200 while the process serves)
//	GET  /readyz   — readiness (503 once draining)
//	GET  /statz    — counters snapshot
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/analyze", s.guard(func(w http.ResponseWriter, r *http.Request) {
		s.handleCompute(w, r, kindAnalyze)
	}))
	mux.HandleFunc("/update", s.guard(func(w http.ResponseWriter, r *http.Request) {
		s.handleCompute(w, r, kindUpdate)
	}))
	mux.HandleFunc("/query", s.guard(s.handleQuery))
	mux.HandleFunc("/healthz", s.guard(s.handleHealthz))
	mux.HandleFunc("/readyz", s.guard(s.handleReadyz))
	mux.HandleFunc("/statz", s.guard(s.handleStatz))
	return mux
}

// guard wraps every endpoint with the request lifecycle: the in-flight
// accounting Drain waits on, and the per-request panic backstop (a
// panic in one request becomes its 500; every other request, and the
// process, is unharmed).
func (s *Server) guard(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.inflight.Add(1)
		defer s.inflight.Done()
		defer func() {
			if rec := recover(); rec != nil {
				s.stats.panics.Add(1)
				writeJSON(w, http.StatusInternalServerError,
					ErrorResponse{Error: fmt.Sprintf("internal panic: %v", rec)})
			}
		}()
		h(w, r)
	}
}

// handleCompute is POST /analyze and POST /update.
func (s *Server) handleCompute(w http.ResponseWriter, r *http.Request, kind reqKind) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "POST required"})
		return
	}
	if s.draining.Load() {
		s.writeUnavailable(w, "draining")
		return
	}
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxSourceBytes))
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "bad request body: " + err.Error()})
		return
	}
	if req.Source == "" {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "source required"})
		return
	}
	cfg, err := s.requestConfig(&req)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	fpr := fsicp.SourceFingerprint(req.Source)
	name := req.Program
	if name == "" {
		name = "prog-" + fpr[:12]
	}

	// The shed decision is made at arrival, before the request would
	// join the queue, and only degrades flow-sensitive work — a
	// request already asking for FI has nothing to shed to.
	shed, detail := s.shouldShed()
	shed = shed && cfg.Method != fsicp.FlowInsensitive
	eff := cfg
	if shed {
		eff = cfg.ShedToFI()
	}

	out, coalesced := s.doCoalesced(r.Context(), kind, name, req.Source, fpr, eff, shed, detail)
	if out == nil {
		// The client gave up while waiting on another request's
		// computation; nothing useful can be written.
		return
	}
	s.writeOutcome(w, out, coalesced)
}

// handleQuery is GET /query: the cached last answer, no analysis work,
// no admission — it stays cheap even under full load (and during
// drain, where it still serves while analyze/update refuse).
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	name := q.Get("program")
	if name == "" {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "program required"})
		return
	}
	cfg, err := s.requestConfig(&Request{
		Method:  q.Get("method"),
		Returns: q.Get("returns") == "true",
	})
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	if q.Get("floats") == "false" {
		cfg.PropagateFloats = false
	}
	e, ok := s.pool.get(name, false)
	if !ok {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: fmt.Sprintf("unknown program %q", name)})
		return
	}
	e.mu.Lock()
	rec, ok := e.lastQuery[resultKey(cfg)]
	e.mu.Unlock()
	if !ok {
		writeJSON(w, http.StatusNotFound,
			ErrorResponse{Error: fmt.Sprintf("no cached report for %q under this configuration", name)})
		return
	}
	writeJSON(w, http.StatusOK, QueryResponse{
		Program:     name,
		Fingerprint: rec.fpr,
		Version:     rec.version,
		Report:      json.RawMessage(rec.report),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.writeUnavailable(w, "draining")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ready",
		"queued": s.waiting.Load(),
		"active": s.stats.active.Load(),
	})
}

func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// requestConfig translates the wire request into an analysis
// configuration under the server's policy: deadline always set and
// clamped, server-level cache and fan-out applied, fault injection
// gated.
func (s *Server) requestConfig(req *Request) (fsicp.Config, error) {
	cfg := fsicp.Config{
		PropagateFloats: true,
		ReturnConstants: req.Returns,
		ReturnsRefresh:  req.ReturnsRefresh,
		Workers:         s.cfg.Workers,
		CacheDir:        s.cfg.CacheDir,
		Fuel:            s.cfg.Fuel,
	}
	switch req.Method {
	case "", "fs", "flow-sensitive":
		cfg.Method = fsicp.FlowSensitive
	case "fi", "flow-insensitive":
		cfg.Method = fsicp.FlowInsensitive
	case "iter", "flow-sensitive-iterative":
		cfg.Method = fsicp.FlowSensitiveIterative
	default:
		return cfg, fmt.Errorf("unknown method %q (want fs, fi, or iter)", req.Method)
	}
	if req.Floats != nil {
		cfg.PropagateFloats = *req.Floats
	}
	if req.Fuel > 0 {
		cfg.Fuel = req.Fuel
	}
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMs > 0 {
		timeout = time.Duration(req.TimeoutMs) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	cfg.Timeout = timeout
	if req.Faults != nil {
		if !s.cfg.AllowFaults {
			return cfg, fmt.Errorf("fault injection not enabled on this server")
		}
		cfg.Faults = fsicp.FaultSpec{
			Seed:        req.Faults.Seed,
			PanicRate:   req.Faults.PanicRate,
			FuelRate:    req.Faults.FuelRate,
			LatencyRate: req.Faults.LatencyRate,
			Latency:     time.Duration(req.Faults.LatencyUs) * time.Microsecond,
		}
	}
	return cfg, nil
}

// writeOutcome renders a flight's outcome for one request. Coalesced
// followers get the shared body with their own Coalesced mark.
func (s *Server) writeOutcome(w http.ResponseWriter, out *outcome, coalesced bool) {
	if out.status != http.StatusOK {
		if out.retryAfter > 0 {
			w.Header().Set("Retry-After", retryAfterSeconds(out.retryAfter))
		}
		writeJSON(w, out.status, ErrorResponse{
			Error:        out.errMsg,
			RetryAfterMs: out.retryAfter.Milliseconds(),
		})
		return
	}
	resp := *out.resp
	resp.Coalesced = coalesced
	writeJSON(w, http.StatusOK, resp)
}

// writeUnavailable is the drain-time refusal: 503 with the same
// Retry-After discipline as admission rejections.
func (s *Server) writeUnavailable(w http.ResponseWriter, why string) {
	d := s.retryAfter()
	w.Header().Set("Retry-After", retryAfterSeconds(d))
	writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{
		Error:        why,
		RetryAfterMs: d.Milliseconds(),
	})
}

// retryAfterSeconds renders a delay as the Retry-After header's
// integer seconds, rounded up so the client never retries early.
func retryAfterSeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(body)
}
