// Package report is the machine-readable encoding of one analysis: the
// JSON document cmd/fsicp emits under -json and cmd/fsicpd serves per
// request. It lives outside both commands so the CLI and the daemon
// cannot drift apart — one shape, one golden test.
//
// A Report contains only deterministic facts (no timings), so the same
// source and configuration always produce byte-identical output, which
// is what the determinism suites compare. The one exception is the
// Cache block: cache traffic is observability that legitimately differs
// between cold and warm runs, so determinism comparisons must ignore
// it — every other field is byte-identical with or without a cache.
package report

import (
	"encoding/json"

	fsicp "fsicp"
)

// Report is the machine-readable shape of one analysis.
type Report struct {
	Program       ProgramInfo           `json:"program"`
	Method        string                `json:"method"`
	Floats        bool                  `json:"propagateFloats"`
	Constants     []fsicp.Constant      `json:"constants"`
	CallSites     []fsicp.CallSiteInfo  `json:"callSites"`
	CallMetrics   fsicp.CallSiteMetrics `json:"callSiteMetrics"`
	EntryMetrics  fsicp.EntryMetrics    `json:"entryMetrics"`
	BackEdgesUsed int                   `json:"backEdgesUsed"`
	// Returns maps function name to its proven return constant (only
	// when the return-constant extension ran and proved any).
	Returns map[string]string `json:"returns,omitempty"`
	// Degradations lists the procedures answered from the
	// flow-insensitive fallback (deadline, fuel, or fault isolation) —
	// plus, in daemon responses, the per-request load-shed record;
	// absent on a fully precise run, so existing consumers and the
	// golden test are unaffected.
	Degradations []fsicp.Degradation `json:"degradations,omitempty"`
	// Optimize reports the optimization pipeline's rewrites when
	// -optimize ran; absent otherwise, so existing consumers and the
	// golden test are unaffected.
	Optimize *fsicp.OptimizeReport `json:"optimize,omitempty"`
	// Cache reports persistent-store traffic when a cache directory is
	// configured; absent otherwise. It is observability, not an
	// analysis fact: the counts differ between cold and warm runs, so
	// determinism comparisons across cold and warm runs must ignore
	// this block — every other field is byte-identical with or without
	// the cache. The cold-cache golden (TestJSONReportBlocksGolden/cache)
	// pins its shape.
	Cache *fsicp.CacheStats `json:"cache,omitempty"`
}

// ProgramInfo summarises the loaded program.
type ProgramInfo struct {
	Procedures int `json:"procedures"`
	CallEdges  int `json:"callEdges"`
	BackEdges  int `json:"backEdges"`
}

// Build gathers the report for one analysis.
func Build(prog *fsicp.Program, a *fsicp.Analysis, cfg fsicp.Config) Report {
	back, total := prog.BackEdges()
	r := Report{
		Program:       ProgramInfo{Procedures: len(prog.Procedures()), CallEdges: total, BackEdges: back},
		Method:        cfg.Method.String(),
		Floats:        cfg.PropagateFloats,
		Constants:     a.Constants(),
		CallSites:     a.CallSites(),
		CallMetrics:   a.CallSiteMetrics(),
		EntryMetrics:  a.EntryMetrics(),
		BackEdgesUsed: a.UsedFlowInsensitiveFallback(),
		Degradations:  a.Degradations(),
	}
	if cfg.CacheDir != "" {
		cs := a.CacheStats()
		r.Cache = &cs
	}
	if cfg.ReturnConstants {
		for _, name := range prog.Procedures() {
			if v, ok := a.ReturnConstant(name); ok {
				if r.Returns == nil {
					r.Returns = make(map[string]string)
				}
				r.Returns[name] = v
			}
		}
	}
	return r
}

// Encode renders the report as indented JSON with a trailing newline.
func (r Report) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
