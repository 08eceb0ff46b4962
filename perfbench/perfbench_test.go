package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	fsicp "fsicp"
	"fsicp/internal/progen"
)

func TestInputsDeterministicInSeed(t *testing.T) {
	a, _ := progen.GenerateModules(corpusConfig(3))
	b, _ := progen.GenerateModules(corpusConfig(3))
	c, _ := progen.GenerateModules(corpusConfig(4))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed generated different corpora")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds generated the same corpus")
	}
	small := scaledDown(serveConfig(clientSeed(3, 0)))
	files, _ := progen.GenerateModules(small)
	s1 := editStream(files, 3, 4)
	s2 := editStream(files, 3, 4)
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("same seed generated different edit streams")
	}
	for i := 1; i < len(s1); i++ {
		if s1[i] == s1[i-1] {
			t.Fatalf("version %d equals its predecessor", i)
		}
	}
	if clientSeed(3, 0) == clientSeed(3, 1) {
		t.Fatal("clients share a program seed")
	}
}

// The daemon takes one source, so edit-serve flattens its corpus; the
// flattened source must analyse exactly like the multi-file corpus.
func TestFlattenedSourceMatchesCorpus(t *testing.T) {
	files, m := progen.GenerateModules(serveConfig(clientSeed(defaultSeed, 0)))
	cfg := compileConfig(0)
	prog, err := fsicp.LoadFiles(sourceFiles(files), fsicp.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := encodeReport(prog, prog.Analyze(cfg), cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := coldReport("flat", flatten(files), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("flattened report digest %s, corpus report digest %s", digest(got), digest(want))
	}
	if shape := shapeOf(prog, files); shape.Procedures != m.Procs || shape.Globals != m.Globals {
		t.Fatalf("shape %+v, manifest %d procedures %d globals", shape, m.Procs, m.Globals)
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of odd count = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of even count = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	if p, ok := percentile(xs, 90); !ok || p != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90, true", p, ok)
	}
	if p, ok := percentile(xs, 100); !ok || p != 100 {
		t.Errorf("p100 of 1..100 = %v, %v; want 100, true", p, ok)
	}
	if _, ok := percentile(xs[:99], 90); ok {
		t.Error("p90 reported from 99 samples")
	}
	if got := latency("update", xs[:99]); len(got) != 1 || got[0].Name != "update_p50_ms" || got[0].N != 99 {
		t.Errorf("latency of 99 samples = %+v, want the p50 alone", got)
	}
	if got := latency("update", xs); len(got) != 2 || got[1].Name != "update_p90_ms" || got[1].Value != 90 {
		t.Errorf("latency of 100 samples = %+v, want p50 and p90", got)
	}
}

func TestWrongDigestCountsAsFailure(t *testing.T) {
	files, _ := progen.GenerateModules(scaledDown(serveConfig(1)))
	src := flatten(files)
	c := &serveClient{name: "p", versions: []string{src}}
	refs := newRefCache([]*serveClient{c}, 1)
	rep, err := coldReport(c.name, src, compileConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	answerFor := func(report []byte) answer {
		body, err := json.MarshalIndent(map[string]any{"fingerprint": fsicp.SourceFingerprint(src),
			"report": json.RawMessage(report)}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return answer{owner: 0, version: -1, body: body}
	}
	b := &bench{}
	b.checkAnswer(answerFor(rep), refs, "query")
	if b.tally.attempted != 1 || b.tally.failed != 0 {
		t.Fatalf("correct answer: attempted %d failed %d", b.tally.attempted, b.tally.failed)
	}
	wrong := bytes.Replace(rep, []byte(`"backEdgesUsed": `), []byte(`"backEdgesUsed": 1`), 1)
	if bytes.Equal(wrong, rep) {
		t.Fatal("could not corrupt the report")
	}
	b.checkAnswer(answerFor(wrong), refs, "query")
	if b.tally.attempted != 2 || b.tally.failed != 1 {
		t.Fatalf("wrong digest: attempted %d failed %d, want 2 and 1", b.tally.attempted, b.tally.failed)
	}
	withCache := bytes.Replace(rep, []byte("\n}"), []byte(",\n  \"cache\": {\"memHits\": 3}\n}"), 1)
	if digest(withCache) != digest(rep) {
		t.Error("the cache block changed the digest")
	}
}

// benchmarkMetrics reads the metric names BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer []string) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	for _, m := range def.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range def.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	return endToEnd, perLayer
}

// TestSmokeAllWorkloads runs every workload, timed and traced, on
// scaled-down inputs, and checks each result line against the
// metrics BENCHMARK.json declares.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the commands and runs every workload")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(os.PathSeparator), "fsicp/cmd/fsicp", "fsicp/cmd/fsicpd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	endToEnd, perLayer := benchmarkMetrics(t)
	small := func(seed int64) progen.ModuleConfig { return scaledDown(corpusConfig(seed)) }
	in := inputs{corpusCfg: small, serveCfg: small}
	for _, workload := range []string{"cold-compile", "edit-serve", "analyze-methods"} {
		for _, traced := range []bool{false, true} {
			o := options{workload: workload, seed: 2, seconds: 1, traced: traced, root: "..", bin: bin, out: t.TempDir()}
			var stdout, stderr bytes.Buffer
			if code := execute(o, in, &stdout, &stderr); code != 0 {
				t.Fatalf("%s traced=%v: exit %d\n%s%s", workload, traced, code, stdout.String(), stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s traced=%v: last line is not a result: %v", workload, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s traced=%v: %+v", workload, traced, res)
			}
			var names []string
			for name := range res.Metrics {
				names = append(names, name)
			}
			sort.Strings(names)
			want := endToEnd
			if traced {
				want = perLayer
			}
			if !reflect.DeepEqual(names, want) {
				t.Errorf("%s traced=%v: metrics %v, BENCHMARK.json declares %v", workload, traced, names, want)
			}
		}
	}
}
