package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	fsicp "fsicp"
	"fsicp/internal/progen"
	"fsicp/internal/report"
)

// genSource builds a deterministic MiniFort program for tests.
func genSource(seed int64, procs int) string {
	return progen.Generate(progen.Config{
		Seed:        seed,
		Procs:       procs,
		Globals:     4,
		AllowFloats: true,
		MaxStmts:    10,
	})
}

// newTestServer starts a Server under httptest and registers a
// drain-then-close cleanup.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx)
		ts.Close()
	})
	return s, ts
}

// post sends one JSON request and returns status and body.
func post(t *testing.T, client *http.Client, url string, body any) (int, []byte, http.Header) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: read body: %v", url, err)
	}
	return resp.StatusCode, data, resp.Header
}

func get(t *testing.T, client *http.Client, url string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, data, resp.Header
}

func decodeResponse(t *testing.T, data []byte) Response {
	t.Helper()
	var r Response
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatalf("bad response body: %v\n%s", err, data)
	}
	return r
}

// coldReport runs the same source and configuration cold through the
// facade and returns the canonical encoded report — what a daemon
// answer's Report block must match byte for byte.
func coldReport(t *testing.T, name, src string, cfg fsicp.Config) []byte {
	t.Helper()
	prog, err := fsicp.Load(name+".mf", src)
	if err != nil {
		t.Fatalf("cold load: %v", err)
	}
	a, err := prog.AnalyzeContext(context.Background(), cfg)
	if err != nil {
		t.Fatalf("cold analyze: %v", err)
	}
	enc, err := report.Build(prog, a, cfg).Encode()
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// canonJSON compacts JSON so byte comparisons ignore transport
// re-indentation (the envelope encoder re-indents embedded raw
// messages); every semantic byte still counts.
func canonJSON(t *testing.T, b []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, b); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, b)
	}
	return buf.Bytes()
}

// queryReport fetches the raw cached report bytes for a program.
func queryReport(t *testing.T, client *http.Client, base, program, method string) []byte {
	t.Helper()
	status, data, _ := get(t, client, base+"/query?program="+program+"&method="+method)
	if status != 200 {
		t.Fatalf("query %s: status %d: %s", program, status, data)
	}
	var q QueryResponse
	if err := json.Unmarshal(data, &q); err != nil {
		t.Fatal(err)
	}
	return q.Report
}

// TestAnalyzeUpdateQueryRoundTrip is the basic protocol flow: analyze
// a program, push a new version with /update, read the cached answer
// back with /query — each answer byte-identical to a cold run.
func TestAnalyzeUpdateQueryRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	client := ts.Client()
	v1 := genSource(101, 8)
	v2 := progen.Edit(v1, 7)
	cfg := fsicp.Config{Method: fsicp.FlowSensitive, PropagateFloats: true}

	status, data, _ := post(t, client, ts.URL+"/analyze", Request{Program: "demo", Source: v1})
	if status != 200 {
		t.Fatalf("analyze: status %d: %s", status, data)
	}
	r1 := decodeResponse(t, data)
	if r1.Version != 1 || r1.Method != "flow-sensitive" || r1.Shed {
		t.Fatalf("analyze envelope: %+v", r1)
	}
	if got, want := canonJSON(t, queryReport(t, client, ts.URL, "demo", "fs")), canonJSON(t, coldReport(t, "demo", v1, cfg)); !bytes.Equal(got, want) {
		t.Errorf("v1 report differs from cold run\ngot:  %s\nwant: %s", got, want)
	}

	status, data, _ = post(t, client, ts.URL+"/update", Request{Program: "demo", Source: v2})
	if status != 200 {
		t.Fatalf("update: status %d: %s", status, data)
	}
	r2 := decodeResponse(t, data)
	if r2.Version != 2 {
		t.Errorf("update version = %d, want 2", r2.Version)
	}
	if !r2.PoolReused {
		t.Error("update did not reuse the warm session")
	}
	if got, want := canonJSON(t, queryReport(t, client, ts.URL, "demo", "fs")), canonJSON(t, coldReport(t, "demo", v2, cfg)); !bytes.Equal(got, want) {
		t.Error("v2 report differs from cold run")
	}

	// An update with unchanged content skips the load entirely.
	status, data, _ = post(t, client, ts.URL+"/update", Request{Program: "demo", Source: v2})
	if status != 200 {
		t.Fatalf("no-op update: status %d: %s", status, data)
	}
	r3 := decodeResponse(t, data)
	if r3.Version != 2 {
		t.Errorf("no-op update bumped version to %d", r3.Version)
	}
	if len(r3.Deltas) != 0 {
		t.Errorf("no-op update reported deltas: %v", r3.Deltas)
	}
}

// TestUpdateAfterCallRemoval: when a caller drops its call, the
// callee's entry environment loses that call's contribution. The
// update must report the constant this uncovers, and serve the cold
// run's report.
func TestUpdateAfterCallRemoval(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	client := ts.Client()
	v1 := "program edge\nproc main() {\n  call q()\n  call p(2)\n}\nproc q() {\n  call p(1)\n}\nproc p(x int) {\n  print x\n}\n"
	v2 := strings.Replace(v1, "  call p(1)\n", "  print 0\n", 1)
	cfg := fsicp.Config{Method: fsicp.FlowSensitive, PropagateFloats: true}

	if status, data, _ := post(t, client, ts.URL+"/analyze", Request{Program: "edge", Source: v1}); status != 200 {
		t.Fatalf("analyze: status %d: %s", status, data)
	}
	status, data, _ := post(t, client, ts.URL+"/update", Request{Program: "edge", Source: v2})
	if status != 200 {
		t.Fatalf("update: status %d: %s", status, data)
	}
	if got := decodeResponse(t, data).Deltas; len(got) != 1 || got[0] != "+ p.x = 2" {
		t.Errorf("update deltas = %q, want [\"+ p.x = 2\"]", got)
	}
	if got, want := canonJSON(t, queryReport(t, client, ts.URL, "edge", "fs")), canonJSON(t, coldReport(t, "edge", v2, cfg)); !bytes.Equal(got, want) {
		t.Errorf("v2 report differs from cold run\ngot:  %s\nwant: %s", got, want)
	}
}

// TestRetriedFailedUpdate: an update whose source passes the semantic
// check but fails lowering, retried, is refused every time with the
// load's diagnostic, and the program keeps serving its last good
// version.
func TestRetriedFailedUpdate(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	client := ts.Client()
	good := "program p\nglobal g int = 3\nproc main() {\n  use g\n  call q(g)\n}\nproc q(x int) {\n  print x\n}\n"
	bad := strings.Replace(good, "  call q(g)\n", "  var i int\n  call q(g)\n  for i = 1, 3, 0 {\n    print i\n  }\n", 1)
	if status, data, _ := post(t, client, ts.URL+"/analyze", Request{Program: "demo", Source: good}); status != 200 {
		t.Fatalf("analyze: status %d: %s", status, data)
	}
	want := canonJSON(t, queryReport(t, client, ts.URL, "demo", "fs"))
	for i := 1; i <= 3; i++ {
		status, data, _ := post(t, client, ts.URL+"/update", Request{Program: "demo", Source: bad})
		var e ErrorResponse
		if err := json.Unmarshal(data, &e); err != nil {
			t.Fatalf("update %d: bad error body: %v\n%s", i, err, data)
		}
		if status != 400 || !strings.Contains(e.Error, "pass irbuild") || !strings.Contains(e.Error, "for-loop step") {
			t.Fatalf("update %d: status %d, error %q; want 400 with the irbuild diagnostic", i, status, e.Error)
		}
		status, data, _ = get(t, client, ts.URL+"/query?program=demo&method=fs")
		var q QueryResponse
		if status != 200 || json.Unmarshal(data, &q) != nil {
			t.Fatalf("query after update %d: status %d: %s", i, status, data)
		}
		if q.Version != 1 || !bytes.Equal(canonJSON(t, q.Report), want) {
			t.Fatalf("query after update %d: version %d, want version 1's report", i, q.Version)
		}
	}
}

// TestUnknownProgramAndBadRequests covers the refusal paths: update
// and query against an unknown program, missing source, bad method,
// fault injection without AllowFaults, and a source that fails to load.
func TestUnknownProgramAndBadRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	client := ts.Client()

	if status, _, _ := post(t, client, ts.URL+"/update", Request{Program: "ghost", Source: genSource(1, 2)}); status != 404 {
		t.Errorf("update unknown program: status %d, want 404", status)
	}
	if status, _, _ := get(t, client, ts.URL+"/query?program=ghost"); status != 404 {
		t.Errorf("query unknown program: status %d, want 404", status)
	}
	if status, _, _ := post(t, client, ts.URL+"/analyze", Request{Program: "x"}); status != 400 {
		t.Errorf("missing source: status %d, want 400", status)
	}
	if status, _, _ := post(t, client, ts.URL+"/analyze", Request{Source: "x", Method: "wat"}); status != 400 {
		t.Errorf("bad method: status %d, want 400", status)
	}
	if status, _, _ := post(t, client, ts.URL+"/analyze", Request{Source: genSource(1, 2), Faults: &FaultRequest{Seed: 1, PanicRate: 1}}); status != 400 {
		t.Errorf("faults without AllowFaults: status %d, want 400", status)
	}
	if status, _, _ := post(t, client, ts.URL+"/analyze", Request{Program: "broken", Source: "proc main( {"}); status != 400 {
		t.Errorf("unparseable source: status %d, want 400", status)
	}
	// The failed load must not leave a dead entry behind.
	if n := s.pool.len(); n != 0 {
		t.Errorf("pool holds %d entries after failed load, want 0", n)
	}
	if status, _, _ := post(t, client, ts.URL+"/update", Request{Program: "broken", Source: genSource(1, 2)}); status != 404 {
		t.Errorf("update after failed analyze: want 404")
	}
}

// TestAdmissionRejectsWith429 saturates a one-slot, no-queue server
// and checks the refusal contract: 429, Retry-After header, a growing
// retry delay while rejections continue, and reset after an admit.
func TestAdmissionRejectsWith429(t *testing.T) {
	s, ts := newTestServer(t, Config{Concurrency: 1, MaxQueue: -1})
	client := ts.Client()
	src := genSource(55, 4)

	// Occupy the only slot so every arrival is rejected.
	s.slots <- struct{}{}
	status, data, hdr := post(t, client, ts.URL+"/analyze", Request{Source: src})
	if status != 429 {
		t.Fatalf("saturated analyze: status %d: %s", status, data)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	var e1, e2 ErrorResponse
	if err := json.Unmarshal(data, &e1); err != nil || e1.RetryAfterMs <= 0 {
		t.Fatalf("429 body: %s (err %v)", data, err)
	}
	_, data, _ = post(t, client, ts.URL+"/analyze", Request{Source: src})
	if err := json.Unmarshal(data, &e2); err != nil {
		t.Fatal(err)
	}
	if e2.RetryAfterMs < e1.RetryAfterMs {
		t.Errorf("retry delay shrank under sustained rejection: %d then %d", e1.RetryAfterMs, e2.RetryAfterMs)
	}
	if got := s.Stats().Rejected; got != 2 {
		t.Errorf("rejected = %d, want 2", got)
	}

	// Free the slot: the same request is admitted and the retry
	// schedule snaps back.
	<-s.slots
	if status, data, _ := post(t, client, ts.URL+"/analyze", Request{Source: src}); status != 200 {
		t.Fatalf("after release: status %d: %s", status, data)
	}
	s.retryMu.Lock()
	attempts := s.retry.Attempts()
	s.retryMu.Unlock()
	if attempts != 0 {
		t.Errorf("retry schedule not reset after admission: %d attempts", attempts)
	}
}

// TestQueuedRequestCompletes parks a request in the admission queue,
// overflows the queue with another, then frees the slot and watches
// the queued request finish — admitted, never dropped.
func TestQueuedRequestCompletes(t *testing.T) {
	s, ts := newTestServer(t, Config{Concurrency: 1, MaxQueue: 1})
	client := ts.Client()
	s.slots <- struct{}{}

	type result struct {
		status int
		body   []byte
	}
	done := make(chan result, 1)
	go func() {
		st, body, _ := post(t, client, ts.URL+"/analyze", Request{Program: "queued", Source: genSource(66, 4)})
		done <- result{st, body}
	}()
	waitFor(t, "request queued", func() bool { return s.Stats().Queued == 1 })

	// The queue is full now: a second distinct request bounces.
	if status, _, _ := post(t, client, ts.URL+"/analyze", Request{Program: "bounced", Source: genSource(67, 4)}); status != 429 {
		t.Errorf("overflow request: status %d, want 429", status)
	}

	<-s.slots
	r := <-done
	if r.status != 200 {
		t.Fatalf("queued request: status %d: %s", r.status, r.body)
	}
}

// TestCoalescingSharesOneComputation holds one slow analysis in
// flight (latency faults) and sends an identical request: the second
// must attach to the first's flight, come back marked Coalesced, and
// carry the identical report.
func TestCoalescingSharesOneComputation(t *testing.T) {
	s, ts := newTestServer(t, Config{Concurrency: 2, AllowFaults: true})
	client := ts.Client()
	req := Request{
		Program: "shared",
		Source:  genSource(77, 10),
		Faults:  &FaultRequest{Seed: 3, LatencyRate: 1, LatencyUs: 20000},
	}

	type result struct {
		status int
		body   []byte
	}
	first := make(chan result, 1)
	go func() {
		st, body, _ := post(t, client, ts.URL+"/analyze", req)
		first <- result{st, body}
	}()
	waitFor(t, "leader computing", func() bool { return s.Stats().Active == 1 })

	status, data, _ := post(t, client, ts.URL+"/analyze", req)
	if status != 200 {
		t.Fatalf("follower: status %d: %s", status, data)
	}
	follower := decodeResponse(t, data)
	if !follower.Coalesced {
		t.Error("second identical request was not coalesced")
	}
	r1 := <-first
	if r1.status != 200 {
		t.Fatalf("leader: status %d: %s", r1.status, r1.body)
	}
	leader := decodeResponse(t, r1.body)
	lb, _ := json.Marshal(leader.Report)
	fb, _ := json.Marshal(follower.Report)
	if !bytes.Equal(lb, fb) {
		t.Error("coalesced responses carry different reports")
	}
	if got := s.Stats().Coalesced; got != 1 {
		t.Errorf("coalesced = %d, want 1", got)
	}
	if got := s.Stats().Served; got != 2 {
		t.Errorf("served = %d, want 2 (leader and follower)", got)
	}
}

// TestCountersCountEveryResponse: the response counters count each
// response, a coalesced follower's included. A leader /analyze queues
// behind a held slot until its queue deadline passes, and an identical
// request joins its flight meanwhile: both clients get 429, so
// Rejected reads 2.
func TestCountersCountEveryResponse(t *testing.T) {
	s, ts := newTestServer(t, Config{Concurrency: 1, MaxQueue: 1, ShedQueue: -1, DefaultTimeout: time.Second})
	client := ts.Client()
	s.slots <- struct{}{}
	defer func() { <-s.slots }()
	req := Request{Program: "held", Source: genSource(91, 4)}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}

	leader := make(chan int, 1)
	go func() {
		resp, err := client.Post(ts.URL+"/analyze", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Errorf("leader: %v", err)
			leader <- 0
			return
		}
		resp.Body.Close()
		leader <- resp.StatusCode
	}()
	waitFor(t, "leader queued", func() bool { return s.Stats().Queued == 1 })

	if status, data, _ := post(t, client, ts.URL+"/analyze", req); status != 429 {
		t.Fatalf("follower: status %d: %s", status, data)
	}
	if status := <-leader; status != 429 {
		t.Fatalf("leader: status %d", status)
	}
	if st := s.Stats(); st.Coalesced != 1 || st.Rejected != 2 {
		t.Errorf("coalesced = %d, rejected = %d; want 1 and 2", st.Coalesced, st.Rejected)
	}
}

// TestShedToFIUnderLatencyPressure drives the latency watermark: with
// a 1ns ShedLatency every request after the first sheds to the
// flow-insensitive solution, the response says so in both the
// envelope and the structured Degradation record, and the answer is
// exactly the clean FI answer.
func TestShedToFIUnderLatencyPressure(t *testing.T) {
	s, ts := newTestServer(t, Config{ShedLatency: time.Nanosecond, ShedQueue: -1})
	client := ts.Client()
	src := genSource(88, 8)

	status, data, _ := post(t, client, ts.URL+"/analyze", Request{Program: "hot", Source: src})
	if status != 200 {
		t.Fatalf("first analyze: status %d: %s", status, data)
	}
	if r := decodeResponse(t, data); r.Shed {
		t.Fatal("first request shed before any latency was observed")
	}

	status, data, _ = post(t, client, ts.URL+"/analyze", Request{Program: "hot", Source: src})
	if status != 200 {
		t.Fatalf("second analyze: status %d: %s", status, data)
	}
	r := decodeResponse(t, data)
	if !r.Shed {
		t.Fatal("second request was not shed over the latency watermark")
	}
	if r.Method != "flow-insensitive" {
		t.Errorf("shed response method = %q", r.Method)
	}
	var rec *fsicp.Degradation
	for i := range r.Report.Degradations {
		if r.Report.Degradations[i].Reason == "load-shed" {
			rec = &r.Report.Degradations[i]
		}
	}
	if rec == nil {
		t.Fatalf("shed response missing load-shed degradation: %+v", r.Report.Degradations)
	}
	if rec.Pass != "serve" || !strings.Contains(rec.Detail, "watermark") {
		t.Errorf("load-shed record = %+v", *rec)
	}

	// The shed answer is the clean FI answer: same constants as a cold
	// flow-insensitive run.
	cold := coldReport(t, "hot", src, fsicp.Config{Method: fsicp.FlowInsensitive, PropagateFloats: true})
	var want report.Report
	if err := json.Unmarshal(cold, &want); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(r.Report.Constants) != fmt.Sprint(want.Constants) {
		t.Errorf("shed constants differ from clean FI:\ngot  %v\nwant %v", r.Report.Constants, want.Constants)
	}
	if got := s.Stats().Shed; got != 1 {
		t.Errorf("shed counter = %d, want 1", got)
	}

	// A request already asking for FI has nothing to shed to.
	status, data, _ = post(t, client, ts.URL+"/analyze", Request{Program: "hot", Source: src, Method: "fi"})
	if status != 200 {
		t.Fatalf("fi analyze: status %d", status)
	}
	if r := decodeResponse(t, data); r.Shed {
		t.Error("explicit FI request marked shed")
	}
}

// TestPooledSessionReusableAfterDegradedRun (the degraded-reuse
// satellite): a fuel-starved request degrades; the next identical
// clean request over the same warm session must produce the
// byte-identical cold answer — degraded summaries never leak into the
// pool's caches.
func TestPooledSessionReusableAfterDegradedRun(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	client := ts.Client()
	src := genSource(99, 12)

	status, data, _ := post(t, client, ts.URL+"/analyze", Request{Program: "deg", Source: src, Fuel: 1})
	if status != 200 {
		t.Fatalf("fuel-starved analyze: status %d: %s", status, data)
	}
	r := decodeResponse(t, data)
	if len(r.Report.Degradations) == 0 {
		t.Fatal("fuel 1 degraded nothing; the test needs a degraded first run")
	}

	status, data, _ = post(t, client, ts.URL+"/analyze", Request{Program: "deg", Source: src})
	if status != 200 {
		t.Fatalf("clean analyze: status %d: %s", status, data)
	}
	clean := decodeResponse(t, data)
	if !clean.PoolReused {
		t.Error("clean run did not reuse the warm session")
	}
	if len(clean.Report.Degradations) != 0 {
		t.Errorf("clean run after degraded one still degraded: %+v", clean.Report.Degradations)
	}
	got := canonJSON(t, queryReport(t, client, ts.URL, "deg", "fs"))
	want := canonJSON(t, coldReport(t, "deg", src, fsicp.Config{Method: fsicp.FlowSensitive, PropagateFloats: true}))
	if !bytes.Equal(got, want) {
		t.Error("clean answer after degraded run differs from cold answer")
	}
}

// TestDrainLifecycle: readyz flips to 503, analyze/update refuse with
// Retry-After, query and healthz still answer, and Drain returns once
// in-flight work is done.
func TestDrainLifecycle(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()
	src := genSource(111, 4)

	if status, _, _ := post(t, client, ts.URL+"/analyze", Request{Program: "d", Source: src}); status != 200 {
		t.Fatal("warmup analyze failed")
	}
	if status, _, _ := get(t, client, ts.URL+"/readyz"); status != 200 {
		t.Error("readyz not 200 before drain")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if status, _, _ := get(t, client, ts.URL+"/readyz"); status != 503 {
		t.Error("readyz not 503 after drain")
	}
	if status, _, _ := get(t, client, ts.URL+"/healthz"); status != 200 {
		t.Error("healthz not 200 after drain")
	}
	status, data, hdr := post(t, client, ts.URL+"/analyze", Request{Program: "d", Source: src})
	if status != 503 {
		t.Errorf("analyze during drain: status %d: %s", status, data)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("drain refusal without Retry-After")
	}
	// The cached answer outlives the drain of admission.
	if status, _, _ := get(t, client, ts.URL+"/query?program=d"); status != 200 {
		t.Error("query refused during drain")
	}
}

// TestPanicIsolation: a panic inside one request becomes that
// request's 500 and leaves the server serving.
func TestPanicIsolation(t *testing.T) {
	s := New(Config{})
	h := s.guard(func(w http.ResponseWriter, r *http.Request) { panic("boom") })
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest("GET", "/x", nil))
	if rec.Code != 500 {
		t.Fatalf("panicking handler: status %d, want 500", rec.Code)
	}
	var e ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || !strings.Contains(e.Error, "boom") {
		t.Errorf("panic body: %s", rec.Body.Bytes())
	}
	if got := s.Stats().Panics; got != 1 {
		t.Errorf("panics = %d, want 1", got)
	}
	// The server still serves.
	_, ts := newTestServer(t, Config{})
	if status, _, _ := post(t, ts.Client(), ts.URL+"/analyze", Request{Source: genSource(1, 2)}); status != 200 {
		t.Error("server unusable after isolated panic")
	}
}

// TestPoolEvictsLRU: with a two-entry pool, touching a third program
// evicts the least recently used — and the evicted program still
// answers correctly (cold again) when it returns.
func TestPoolEvictsLRU(t *testing.T) {
	s, ts := newTestServer(t, Config{PoolSize: 2})
	client := ts.Client()
	srcs := map[string]string{"a": genSource(1, 3), "b": genSource(2, 3), "c": genSource(3, 3)}
	for _, name := range []string{"a", "b", "c"} {
		if status, _, _ := post(t, client, ts.URL+"/analyze", Request{Program: name, Source: srcs[name]}); status != 200 {
			t.Fatalf("analyze %s failed", name)
		}
	}
	if n := s.pool.len(); n != 2 {
		t.Fatalf("pool size %d, want 2", n)
	}
	// "a" was least recently used and is gone; its query cache with it.
	if status, _, _ := get(t, client, ts.URL+"/query?program=a"); status != 404 {
		t.Error("evicted program still queryable")
	}
	// Re-analyzing it works and matches the cold answer.
	status, data, _ := post(t, client, ts.URL+"/analyze", Request{Program: "a", Source: srcs["a"]})
	if status != 200 {
		t.Fatalf("re-analyze evicted: status %d: %s", status, data)
	}
	if decodeResponse(t, data).PoolReused {
		t.Error("evicted program claims a warm session")
	}
}

// TestResultKeyKeepsFaultRatesExact: chaos configurations whose fault
// rates differ only past the second decimal inject different faults,
// so they must not share a delta baseline, a query cache entry or a
// coalesced flight — and a chaos spec with a tiny rate must not pass
// for the clean one.
func TestResultKeyKeepsFaultRatesExact(t *testing.T) {
	keys := map[string]func(fsicp.Config) string{
		"resultKey": resultKey,
		"coalesceKey": func(c fsicp.Config) string {
			return coalesceKey(kindAnalyze, "p", "fpr", c)
		},
	}
	for _, tc := range []struct {
		name string
		a, b fsicp.FaultSpec
	}{
		{"third decimal", fsicp.FaultSpec{Seed: 7, PanicRate: 0.101}, fsicp.FaultSpec{Seed: 7, PanicRate: 0.104}},
		{"clean vs tiny rate", fsicp.FaultSpec{}, fsicp.FaultSpec{PanicRate: 0.004}},
	} {
		for kname, key := range keys {
			a := fsicp.Config{Method: fsicp.FlowSensitive, Faults: tc.a}
			b := fsicp.Config{Method: fsicp.FlowSensitive, Faults: tc.b}
			if ka, kb := key(a), key(b); ka == kb {
				t.Errorf("%s: %s shares %q between %#v and %#v", tc.name, kname, ka, tc.a, tc.b)
			}
		}
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
