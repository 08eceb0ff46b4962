// Command fsicpd is the analysis-as-a-service daemon: a long-running
// HTTP+JSON server over the fsicp library that keeps a bounded pool of
// warm incremental sessions and answers analyze/update/query requests
// with the same report encoding `fsicp -json` prints.
//
//	fsicpd -addr :8723 -cache /var/cache/fsicp
//
// Endpoints: POST /analyze, POST /update, GET /query, GET /healthz,
// GET /readyz, GET /statz. See internal/serve for the serving
// discipline (admission control, request coalescing, load-shed-to-FI,
// graceful drain) and DESIGN.md for the architecture.
//
// On SIGTERM or SIGINT the daemon drains gracefully: it stops
// admitting work (503 + Retry-After), finishes what is in flight
// (every request is deadline-bounded, so the drain is finite), flushes
// the persistent cache's generation stamp, and exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fsicp/internal/serve"
)

// options is everything the flag set configures: the serving policy
// plus the process-level knobs main needs.
type options struct {
	serve.Config
	addr         string
	drainTimeout time.Duration
}

// parseFlags builds the daemon options from args. Split from main so
// the flag surface is unit-testable.
func parseFlags(args []string) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("fsicpd", flag.ContinueOnError)
	fs.StringVar(&o.addr, "addr", ":8723", "listen address")
	fs.IntVar(&o.PoolSize, "pool", 0, "warm sessions kept resident (0 = 8)")
	fs.IntVar(&o.Concurrency, "concurrency", 0, "analyses executing at once (0 = GOMAXPROCS)")
	fs.IntVar(&o.MaxQueue, "queue", 0, "requests waiting for a slot before 429 (0 = 64, negative = none)")
	fs.IntVar(&o.ShedQueue, "shed-queue", 0, "queue depth past which flow-sensitive requests shed to FI (0 = queue/2, negative = off)")
	fs.DurationVar(&o.ShedLatency, "shed-latency", 0, "latency EWMA past which requests shed to FI (0 = off)")
	fs.DurationVar(&o.DefaultTimeout, "timeout", 0, "default per-request analysis deadline (0 = 10s)")
	fs.DurationVar(&o.MaxTimeout, "max-timeout", 0, "clamp on client-supplied deadlines (0 = 30s)")
	fs.IntVar(&o.Fuel, "fuel", 0, "default per-procedure fuel bound (0 = unlimited)")
	fs.StringVar(&o.CacheDir, "cache", "", "persistent summary cache directory (empty = memory only)")
	fs.IntVar(&o.Workers, "workers", 0, "per-analysis worker fan-out (0 = GOMAXPROCS)")
	fs.BoolVar(&o.AllowFaults, "allow-faults", false, "accept request-level fault injection (chaos testing)")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 30*time.Second, "bound on the graceful drain at shutdown")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		// Reported as the flag package reports its own errors: the
		// message, then the usage.
		err := fmt.Errorf("unexpected arguments: %v", fs.Args())
		fmt.Fprintln(fs.Output(), err)
		fs.Usage()
		return nil, err
	}
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		os.Exit(2) // parseFlags has printed the error and the usage
	}
	srv := serve.New(o.Config)
	httpSrv := &http.Server{Addr: o.addr, Handler: srv.Handler()}

	errc := make(chan error, 1)
	go func() {
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()
	fmt.Fprintf(os.Stderr, "fsicpd: serving on %s\n", o.addr)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "fsicpd: %v\n", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	fmt.Fprintln(os.Stderr, "fsicpd: draining")
	dctx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		fmt.Fprintf(os.Stderr, "fsicpd: drain incomplete: %v\n", err)
	}
	httpSrv.Shutdown(dctx)
	fmt.Fprintln(os.Stderr, "fsicpd: stopped")
}
