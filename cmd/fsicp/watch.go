package main

import (
	"fmt"
	"os"
	"time"

	fsicp "fsicp"
	"fsicp/internal/resilience"
)

// watchBackoff controls the retry schedule for transient file errors
// (editor save races, the file briefly missing during an atomic
// rename, permission flaps). Reads are retried with doubling delays up
// to watchMaxBackoff; the loop never gives up — watch mode's contract
// is to outlive anything the filesystem does to the file. The schedule
// itself is the shared resilience.Backoff, the same one the daemon's
// Retry-After computation uses.
const (
	watchInitialBackoff = 100 * time.Millisecond
	watchMaxBackoff     = 5 * time.Second
)

// watchLoop re-analyses the file whenever its content changes, through
// one incremental Session per run of the command, printing only the
// constant deltas each version introduces plus the reuse achieved.
// It polls (no inotify dependency) and never returns.
//
// The session's loads run the sharded pipeline under cfg.Workers; with
// stats set, every version prints the per-pass timing table, where a
// version the session reused whole (a comment or whitespace edit) shows
// every load pass as "cached=…" and the sharded passes carry their
// "shards=N workers=M" fan-out.
//
// Failure model: a read error or a program that fails to load is
// always transient — the loop reports it once per new failure,
// backs off, and keeps the last good session (if any) alive so the
// next successful save resumes incremental analysis from it.
func watchLoop(name string, cfg fsicp.Config, stats bool, interval time.Duration) {
	var (
		sess      *fsicp.Session
		last      []fsicp.Constant
		lastElims []fsicp.ProcElimination
		lastSrc   string
		haveSrc   bool
		backoff   = resilience.NewBackoff(watchInitialBackoff, watchMaxBackoff)
		lastErr   string
	)

	// report prints an error only when it differs from the previous
	// one, so a persistent failure doesn't flood the terminal while the
	// loop retries.
	report := func(err error) {
		if msg := err.Error(); msg != lastErr {
			fmt.Fprintf(os.Stderr, "fsicp: %v (watching for recovery)\n", err)
			lastErr = msg
		}
	}
	recovered := func() {
		if lastErr != "" {
			fmt.Fprintf(os.Stderr, "fsicp: recovered\n")
			lastErr = ""
		}
		backoff.Reset()
	}

	fmt.Printf("watching %s (%s)\n", name, cfg.Method)
	for {
		b, err := os.ReadFile(name)
		if err != nil {
			report(err)
			time.Sleep(backoff.Next())
			continue
		}
		src := string(b)
		if haveSrc && src == lastSrc {
			// Unchanged content: the read succeeded, so reset the read
			// backoff — but a standing parse/sem error on this content
			// is not recovered until the content changes.
			backoff.Reset()
			time.Sleep(interval)
			continue
		}

		if sess == nil {
			// No good version yet: (re)try to open the session. A parse
			// or semantic error is transient like any other — the next
			// save may fix it.
			s, err := fsicp.NewSessionWith(name, src, fsicp.LoadOptions{Workers: cfg.Workers})
			if err != nil {
				lastSrc, haveSrc = src, true
				report(err)
				time.Sleep(interval)
				continue
			}
			sess = s
			recovered()
			lastSrc, haveSrc = src, true
			a := sess.Analyze(cfg)
			printDegradations(a.Degradations())
			printConstants(a.Constants())
			last = a.Constants()
			lastElims = a.Eliminations()
			printEliminations(lastElims)
			if stats {
				fmt.Print(a.StatsTable())
			}
			time.Sleep(interval)
			continue
		}

		lastSrc, haveSrc = src, true
		if _, err := sess.Update(src); err != nil {
			// Keep the previous good version; the next edit may fix it.
			report(err)
			time.Sleep(interval)
			continue
		}
		recovered()
		a := sess.Analyze(cfg)
		cur := a.Constants()
		reused, hits, misses := a.Incremental()
		fmt.Printf("-- v%d: reused %d procedures, value cache %d/%d\n",
			sess.Version(), reused, hits, hits+misses)
		printDegradations(a.Degradations())
		ds := fsicp.DiffConstants(last, cur)
		if len(ds) == 0 {
			fmt.Println("   no constant changes")
		}
		for _, d := range ds {
			fmt.Printf("   %s\n", d)
		}
		// Elimination deltas: what the edit changed about how much the
		// fold pass could now delete (a non-mutating preview, so the
		// session's program is untouched).
		curElims := a.Eliminations()
		for _, d := range fsicp.DiffEliminations(lastElims, curElims) {
			fmt.Printf("   %s\n", d)
		}
		lastElims = curElims
		if stats {
			fmt.Print(a.StatsTable())
		}
		last = cur
		time.Sleep(interval)
	}
}

// printEliminations summarises the fold pass's eliminable instruction
// and branch counts for the initial version; later versions print only
// deltas.
func printEliminations(es []fsicp.ProcElimination) {
	instrs, branches := 0, 0
	for _, e := range es {
		instrs += e.Instrs
		branches += e.Branches
	}
	fmt.Printf("eliminable: %d instructions, %d branches across %d procedures\n",
		instrs, branches, len(es))
}
