package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	fsicp "fsicp"
	"fsicp/internal/report"
	"fsicp/internal/resilience"
)

// TestResponsesRenderAsWriteJSON: a 200 splices the report, encoded
// once, into its envelope, and the bytes equal what writeJSON writes
// for the whole body: analyze and update responses (with deltas, a
// shed mark, a coalesced mark) and a query answered from the cache.
func TestResponsesRenderAsWriteJSON(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	src := genSource(101, 8)
	cfg := fsicp.Config{Method: fsicp.FlowSensitive, PropagateFloats: true, ReturnConstants: true}
	prog, err := fsicp.Load("render.mf", src)
	if err != nil {
		t.Fatal(err)
	}
	rep := report.Build(prog, prog.Analyze(cfg), cfg)
	shedRep := rep
	shedRep.Degradations = append(shedRep.Degradations, fsicp.Degradation{
		Pass: "serve", Reason: resilience.ReasonShed, Detail: "queue <depth> & watermark",
	})

	head := Response{Program: "render", Fingerprint: fsicp.SourceFingerprint(src), Version: 1,
		Method: cfg.Method.String(), CacheMisses: 8}
	update := head
	update.Version, update.PoolReused, update.ProcsReused, update.CacheHits = 2, true, 5, 3
	update.Deltas = []string{"p1: x 1 -> 2", "p2: y <gone>"}
	shed := update
	shed.Shed = true
	for _, c := range []struct {
		name      string
		head      Response
		rep       report.Report
		coalesced bool
	}{
		{"analyze", head, rep, false},
		{"update", update, rep, false},
		{"shed", shed, shedRep, false},
		{"coalesced", update, rep, true},
	} {
		enc, err := encodeReport(c.rep)
		if err != nil {
			t.Fatal(err)
		}
		got := httptest.NewRecorder()
		s.writeOutcome(got, &outcome{status: http.StatusOK, resp: &c.head, report: enc}, c.coalesced)
		full := c.head
		full.Report, full.Coalesced = c.rep, c.coalesced
		want := httptest.NewRecorder()
		writeJSON(want, http.StatusOK, full)
		if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Errorf("%s: spliced body differs from writeJSON's:\ngot  %s\nwant %s", c.name, got.Body.Bytes(), want.Body.Bytes())
		}
		if ct := got.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q", c.name, ct)
		}
	}

	// The query cache holds what compute encoded; GET /query must
	// answer as writeJSON did over the canonical encoding.
	status, data, _ := post(t, ts.Client(), ts.URL+"/analyze", Request{Program: "render", Source: src, Returns: true})
	if status != http.StatusOK {
		t.Fatalf("analyze: status %d: %s", status, data)
	}
	status, got, _ := get(t, ts.Client(), ts.URL+"/query?program=render&method=fs&returns=true")
	if status != http.StatusOK {
		t.Fatalf("query: status %d: %s", status, got)
	}
	want := httptest.NewRecorder()
	writeJSON(want, http.StatusOK, QueryResponse{Program: "render", Fingerprint: head.Fingerprint, Version: 1,
		Report: json.RawMessage(coldReport(t, "render", src, cfg))})
	if !bytes.Equal(got, want.Body.Bytes()) {
		t.Errorf("query body differs from writeJSON's:\ngot  %s\nwant %s", got, want.Body.Bytes())
	}
}
