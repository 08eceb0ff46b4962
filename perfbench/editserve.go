package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	fsicp "fsicp"
	"fsicp/internal/progen"
)

// samplesPerClient is how many /update and how many /query answers per
// client the run keeps (reservoir-sampled, seeded) for comparison with
// a cold analysis after the timed window.
const samplesPerClient = 2

// serveClient is one closed-loop client of the edit-serve workload and
// the program it owns.
type serveClient struct {
	idx      int
	name     string
	versions []string // the client's edit stream; versions[0] is analyzed during setup
	sent     int      // stream position of the last version /update accepted

	rng           *rand.Rand
	updSeen       int
	qrySeen       int
	updSamples    []answer
	qrySamples    []answer
	updateMs      []float64
	queryMs       []float64
	updatesServed int
}

// answer is one daemon answer kept for checking: the program's owner,
// the stream position it answers (-1 for a query, resolved later by
// fingerprint) and the response body.
type answer struct {
	owner   int
	version int
	body    []byte
}

// wireAnswer is the part of a /analyze, /update or /query response the
// check reads.
type wireAnswer struct {
	Fingerprint string          `json:"fingerprint"`
	Report      json.RawMessage `json:"report"`
}

func newClients(cfg func(int64) progen.ModuleConfig, seed int64, n, versions int) []*serveClient {
	cs := make([]*serveClient, n)
	var wg sync.WaitGroup
	for i := range cs {
		cs[i] = &serveClient{idx: i, name: fmt.Sprintf("client%d", i), rng: rand.New(rand.NewSource(seed*31 + int64(i)))}
		wg.Add(1)
		go func(c *serveClient) {
			defer wg.Done()
			files, _ := progen.GenerateModules(cfg(clientSeed(seed, c.idx)))
			c.versions = editStream(files, clientSeed(seed, c.idx), versions)
		}(cs[i])
	}
	wg.Wait()
	return cs
}

// editServe is the edit-serve workload.
func editServe(b *bench) error {
	nclients := b.nproc
	if nclients < 2 {
		nclients = 2 // every client reads another client's program
	}
	versions := b.seconds*4 + 8
	if b.traced {
		versions = serveReplayEdits + 1
	}
	var clients []*serveClient
	var d *daemon
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	var analyzed [][]byte
	reset := func() {
		if d != nil {
			d.stop()
			d = nil
		}
	}
	if err := b.timedSetup(reset, func() (err error) {
		clients = newClients(b.serveCfg, b.seed, nclients, versions)
		if d, err = startDaemon(filepath.Join(b.bin, "fsicpd"), b.nproc); err != nil {
			return err
		}
		analyzed = make([][]byte, len(clients))
		errs := make([]error, len(clients))
		var wg sync.WaitGroup
		for i, c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				analyzed[i], errs[i] = d.post("/analyze", c.name, c.versions[0])
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	refs := newRefCache(clients, b.nproc)
	for i, c := range clients {
		want, err := coldReport(c.name, c.versions[0], compileConfig(1))
		if err != nil {
			return fmt.Errorf("reference: %w", err)
		}
		refs.put(i, 0, want)
		b.checkAnswer(answer{owner: i, version: 0, body: analyzed[i]}, refs, "analyze")
	}
	first := progen.File{Name: clients[0].name + ".mf", Src: clients[0].versions[0]}
	prog, err := fsicp.LoadWith(first.Name, first.Src, fsicp.LoadOptions{Workers: b.nproc})
	if err != nil {
		return err
	}
	b.shape = shapeOf(prog, []progen.File{first})
	if err := b.runOracle(b.serveCfg(b.seed), true); err != nil {
		return err
	}
	if b.traced {
		d.stop()
		d = nil
		return b.tracedRun(tracedInput{files: []progen.File{first}, cfgs: []fsicp.Config{compileConfig(b.nproc)},
			refs: [][]byte{refs.get(0, 0)}, stream: clients[0].versions, name: clients[0].name})
	}

	stopSampling := make(chan struct{})
	sampled := make(chan []float64)
	go func() { sampled <- sampleRSS(d.cmd.Process.Pid, stopSampling) }()
	start := time.Now()
	end := b.deadline()
	var wg sync.WaitGroup
	var lastMu sync.Mutex
	last := start
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.clientLoop(d, c, clients[(c.idx+1)%len(clients)], end)
			lastMu.Lock()
			if t := time.Now(); t.After(last) {
				last = t
			}
			lastMu.Unlock()
		}()
	}
	wg.Wait()
	window := last.Sub(start).Seconds()
	close(stopSampling)
	rssSamples := <-sampled

	// Each client's last accepted version, read back through /query.
	var final []answer
	for _, c := range clients {
		body, err := d.query(c.name)
		if b.tally.check(err == nil, "final query %s: %v", c.name, err) {
			final = append(final, answer{owner: c.idx, version: c.sent, body: body})
		}
	}
	statz, _ := d.statz()
	rss, err := d.stop()
	d = nil
	if err != nil {
		return err
	}
	for _, c := range clients {
		for _, a := range c.updSamples {
			b.checkAnswer(a, refs, "update")
		}
		for _, a := range c.qrySamples {
			b.checkAnswer(a, refs, "query")
		}
	}
	for _, a := range final {
		b.checkAnswer(a, refs, "final")
	}

	var upd, qry []float64
	served := 0
	for _, c := range clients {
		upd = append(upd, c.updateMs...)
		qry = append(qry, c.queryMs...)
		served += c.updatesServed
	}
	if len(upd) == 0 {
		return errNoOps
	}
	b.named = append(b.named, latency("update", upd)...)
	b.named = append(b.named, latency("query", qry)...)
	b.named = append(b.named,
		named{Name: "updates_per_s", Value: float64(served) / window, Unit: "1/s", N: served},
		named{Name: "daemon_rss_mib", Value: rss, Unit: "MiB", N: 1},
		named{Name: "daemon_rss_median_mib", Value: median(rssSamples), Unit: "MiB", N: len(rssSamples)},
		named{Name: "serve.rejected", Value: float64(statz.Rejected), Unit: "count", N: 1},
		named{Name: "serve.shed", Value: float64(statz.Shed), Unit: "count", N: 1},
		named{Name: "serve.coalesced", Value: float64(statz.Coalesced), Unit: "count", N: 1})
	b.samples["update_ms"], b.samples["query_ms"], b.samples["daemon_rss_mib"] = upd, qry, rssSamples
	b.metrics["op_ms"] = metric{median(upd), "ms"}
	b.metrics["rss_mib"] = metric{median(rssSamples), "MiB"}
	return nil
}

// clientLoop is one client's closed loop: update its own program to
// the next version, then read the other program, until end.
func (b *bench) clientLoop(d *daemon, c, other *serveClient, end time.Time) {
	for next := c.sent + 1; time.Now().Before(end); next++ {
		v := next % len(c.versions)
		body := requestBody(c.name, c.versions[v])
		t0 := time.Now()
		resp, err := d.do(http.MethodPost, "/update", body)
		elapsed := ms(time.Since(t0))
		if b.tally.check(err == nil, "%s update: %v", c.name, err) {
			c.updateMs = append(c.updateMs, elapsed)
			c.updatesServed++
			c.sent = v
			c.keep(&c.updSamples, &c.updSeen, answer{owner: c.idx, version: v, body: resp})
		}

		t0 = time.Now()
		resp, err = d.do(http.MethodGet, "/query?"+queryParams(other.name), nil)
		elapsed = ms(time.Since(t0))
		if b.tally.check(err == nil, "%s query %s: %v", c.name, other.name, err) {
			c.queryMs = append(c.queryMs, elapsed)
			c.keep(&c.qrySamples, &c.qrySeen, answer{owner: other.idx, version: -1, body: resp})
		}
	}
}

// keep reservoir-samples a into samples, so every answer of the
// stream is equally likely to be checked.
func (c *serveClient) keep(samples *[]answer, seen *int, a answer) {
	*seen++
	if len(*samples) < samplesPerClient {
		*samples = append(*samples, a)
	} else if j := c.rng.Intn(*seen); j < samplesPerClient {
		(*samples)[j] = a
	}
}

// checkAnswer compares one daemon answer with a cold in-process
// analysis of the version it answers, resolving a query's version by
// its fingerprint.
func (b *bench) checkAnswer(a answer, refs *refCache, kind string) {
	var w wireAnswer
	if err := json.Unmarshal(a.body, &w); err != nil {
		b.tally.check(false, "%s answer for client%d: %v", kind, a.owner, err)
		return
	}
	if a.version < 0 {
		a.version = refs.versionOf(a.owner, w.Fingerprint)
		if a.version < 0 {
			b.tally.check(false, "%s answer for client%d: fingerprint %s matches no version sent", kind, a.owner, w.Fingerprint)
			return
		}
	}
	want, err := refs.ref(a.owner, a.version)
	if err != nil {
		b.tally.check(false, "%s reference for client%d v%d: %v", kind, a.owner, a.version, err)
		return
	}
	b.checkReport(fmt.Sprintf("%s answer for client%d v%d", kind, a.owner, a.version), w.Report, want, nil)
}

// refCache memoizes cold reference reports per (client, version).
type refCache struct {
	clients []*serveClient
	workers int
	reports map[[2]int][]byte
	fprs    map[int][]string
}

func newRefCache(clients []*serveClient, workers int) *refCache {
	return &refCache{clients: clients, workers: workers, reports: make(map[[2]int][]byte), fprs: make(map[int][]string)}
}

func (r *refCache) put(client, version int, rep []byte) { r.reports[[2]int{client, version}] = rep }
func (r *refCache) get(client, version int) []byte      { return r.reports[[2]int{client, version}] }

func (r *refCache) ref(client, version int) ([]byte, error) {
	if rep, ok := r.reports[[2]int{client, version}]; ok {
		return rep, nil
	}
	c := r.clients[client]
	rep, err := coldReport(c.name, c.versions[version], compileConfig(r.workers))
	if err == nil {
		r.put(client, version, rep)
	}
	return rep, err
}

// versionOf finds the stream position of the client's version with
// the given source fingerprint; -1 when none has it.
func (r *refCache) versionOf(client int, fpr string) int {
	c := r.clients[client]
	fs := r.fprs[client]
	for i := range c.versions {
		if i == len(fs) {
			fs = append(fs, fsicp.SourceFingerprint(c.versions[i]))
			r.fprs[client] = fs
		}
		if fs[i] == fpr {
			return i
		}
	}
	return -1
}

func requestBody(program, src string) []byte {
	b, _ := json.Marshal(map[string]any{"program": program, "source": src, "returns": true})
	return b
}

func queryParams(program string) string {
	return url.Values{"program": {program}, "method": {"fs"}, "returns": {"true"}}.Encode()
}

// daemon is a running fsicpd process on loopback.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	stderr bytes.Buffer
}

func startDaemon(bin string, nproc int) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	n := strconv.Itoa(nproc)
	d := &daemon{
		base:   "http://" + addr,
		client: &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 4 * nproc}},
	}
	d.cmd = exec.Command(bin, "-addr", addr, "-concurrency", n, "-workers", n, "-shed-queue", "-1")
	d.cmd.Stderr = &d.stderr
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start fsicpd: %w", err)
	}
	for t0 := time.Now(); time.Since(t0) < 20*time.Second; time.Sleep(10 * time.Millisecond) {
		if _, err := d.do(http.MethodGet, "/healthz", nil); err == nil {
			return d, nil
		}
	}
	d.stop()
	return nil, fmt.Errorf("fsicpd did not become healthy: %s", d.stderr.String())
}

// sampleRSS reads the process's resident set size every 100 ms until
// stop is closed and returns the samples in MiB.
func sampleRSS(pid int, stop <-chan struct{}) []float64 {
	var out []float64
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	path := fmt.Sprintf("/proc/%d/status", pid)
	for {
		select {
		case <-stop:
			return out
		case <-tick.C:
			if v := statusMiB(path, "VmRSS:"); v > 0 {
				out = append(out, v)
			}
		}
	}
}

// freeAddr picks a free loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// do sends one request and returns the body of a 200 response; any
// other status is an error.
func (d *daemon) do(method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(context.Background(), method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

func (d *daemon) post(path, program, src string) ([]byte, error) {
	return d.do(http.MethodPost, path, requestBody(program, src))
}

func (d *daemon) query(program string) ([]byte, error) {
	return d.do(http.MethodGet, "/query?"+queryParams(program), nil)
}

// daemonStats is the part of /statz the run reports.
type daemonStats struct {
	Rejected  int64 `json:"rejected"`
	Shed      int64 `json:"shed"`
	Coalesced int64 `json:"coalesced"`
}

func (d *daemon) statz() (daemonStats, error) {
	var s daemonStats
	body, err := d.do(http.MethodGet, "/statz", nil)
	if err == nil {
		err = json.Unmarshal(body, &s)
	}
	return s, err
}

// stop drains the daemon with SIGTERM, killing it if the drain takes
// too long, waits for it to exit and returns its peak RSS in MiB.
func (d *daemon) stop() (float64, error) {
	d.client.CloseIdleConnections()
	d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		err = fmt.Errorf("fsicpd did not drain: %v", <-done)
	}
	if err != nil {
		return 0, fmt.Errorf("fsicpd: %w: %s", err, d.stderr.String())
	}
	return maxRSS(d.cmd), nil
}
