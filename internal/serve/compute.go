package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	fsicp "fsicp"
	"fsicp/internal/report"
	"fsicp/internal/resilience"
)

// reqKind distinguishes the two mutating endpoints. They share one
// computation path; the differences are whether an unknown program is
// created (analyze) or a 404 (update), and whether constant deltas
// against the previous answer are reported (update).
type reqKind int

const (
	kindAnalyze reqKind = iota
	kindUpdate
)

// outcome is the result of one flight, shared verbatim by every
// coalesced request. A 200's resp leaves Report unset: report holds it,
// encoded once (encodeReport) for this response and the query cache.
type outcome struct {
	status     int
	errMsg     string
	retryAfter time.Duration
	resp       *Response
	report     []byte
}

func errOutcome(status int, msg string) *outcome {
	return &outcome{status: status, errMsg: msg}
}

// resultKey is the report-shaping part of an effective configuration:
// everything that changes what a 200 response's Report can contain.
// Timeout is excluded (a deadline changes timing, and at worst which
// procedures degrade — the delta baseline tolerates that); fuel and
// the fault spec are included so chaos traffic keeps its own baseline
// and query cache, never polluting the clean configuration's.
func resultKey(cfg fsicp.Config) string {
	return fmt.Sprintf("%d|%t|%t|%t|%d|%+v",
		cfg.Method, cfg.PropagateFloats, cfg.ReturnConstants, cfg.ReturnsRefresh,
		cfg.Fuel, cfg.Faults)
}

// compute runs one admitted request against the session pool: find or
// create the program's warm session, bring it to the request's source
// version, analyze under the effective configuration, and package the
// report. cfg is the effective configuration — if shed is set it has
// already been rewritten by ShedToFI, and the response's Report gains
// the structured load-shed Degradation record.
func (s *Server) compute(kind reqKind, name, src string, sw fsicp.SourceSweep, cfg fsicp.Config, shed bool, shedDetail string) *outcome {
	fpr := sw.Fingerprint()
	e, existed := s.pool.get(name, kind == kindAnalyze)
	if e == nil {
		return errOutcome(http.StatusNotFound, fmt.Sprintf("unknown program %q: analyze it first", name))
	}
	e.mu.Lock()
	defer e.mu.Unlock()

	if e.sess == nil && kind == kindUpdate {
		// The entry was created by an analyze whose load failed and is
		// (or is about to be) removed; to this update the program never
		// existed.
		return errOutcome(http.StatusNotFound, fmt.Sprintf("unknown program %q: analyze it first", name))
	}
	warm := existed && e.sess != nil
	if e.sess == nil {
		sess, err := fsicp.NewSessionWith(name+".mf", src, fsicp.LoadOptions{Workers: s.cfg.Workers})
		if err != nil {
			s.pool.remove(name, e)
			return errOutcome(http.StatusBadRequest, err.Error())
		}
		e.sess = sess
	} else if e.sess.SourceKey() != fpr {
		if _, err := e.sess.UpdateKeyed(src, sw); err != nil {
			// The session keeps its previous good version; only this
			// request fails.
			return errOutcome(http.StatusBadRequest, err.Error())
		}
	}

	// The analysis context is detached: the flight outlives its
	// clients, and cfg.Timeout (always set by requestConfig) bounds it.
	a, err := e.sess.AnalyzeContext(context.Background(), cfg)
	if err != nil {
		return errOutcome(http.StatusInternalServerError, err.Error())
	}
	rep := report.Build(e.sess.Program(), a, cfg)
	if shed {
		rep.Degradations = append(rep.Degradations, fsicp.Degradation{
			Pass:   "serve",
			Reason: resilience.ReasonShed,
			Detail: shedDetail,
		})
	}

	rkey := resultKey(cfg)
	var deltas []string
	if kind == kindUpdate {
		for _, d := range fsicp.DiffConstants(e.lastConst[rkey], rep.Constants) {
			deltas = append(deltas, d.String())
		}
	}
	e.lastConst[rkey] = rep.Constants
	enc, err := encodeReport(rep)
	if err != nil {
		return errOutcome(http.StatusInternalServerError, err.Error())
	}
	e.lastQuery[rkey] = queryRecord{fpr: fpr, version: e.sess.Version(), report: enc}

	reused, hits, misses := a.Incremental()
	return &outcome{status: http.StatusOK, report: enc, resp: &Response{
		Program:     name,
		Fingerprint: fpr,
		Version:     e.sess.Version(),
		Method:      cfg.Method.String(),
		Shed:        shed,
		PoolReused:  warm,
		ProcsReused: reused,
		CacheHits:   hits,
		CacheMisses: misses,
		Deltas:      deltas,
	}}
}

// encodeReport encodes rep as a 200 body's "report" member: indented
// one level deep, as writeJSON indents it inside a response, and
// without a trailing newline.
func encodeReport(rep report.Report) ([]byte, error) {
	return json.MarshalIndent(rep, "  ", "  ")
}
