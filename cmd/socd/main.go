// Command socd serves the analysis pipeline over HTTP: ATPG runs, TDV
// reports, design-rule lints and wrapper/TAM test schedules as JSON
// endpoints, backed by a bounded
// priority job queue, a worker pool, and a content-addressed result store
// that makes repeated analyses cache hits instead of recomputations.
//
// Usage:
//
//	socd -addr :8089 -cache-dir /var/cache/socd
//	socd -addr 127.0.0.1:0 -workers 4 -cache-max-bytes 67108864
//
// Endpoints:
//
//	POST /v1/atpg      {"bench": "..."} or {"standin": "s953"} [+ options]
//	POST /v1/tdv       {"soc": "..."} or {"builtin": "d695"} [+ tmono]
//	POST /v1/lint      {"bench": "..."} or {"soc": "..."}
//	POST /v1/schedule  {"builtin": "d695", "tam": 32} or {"soc": "..."}
//	                   [+ power_budget, precedence] — wrapper/TAM
//	                   co-optimized test schedule (internal/coopt)
//	GET  /v1/jobs/{id} status and result of an async job (with its trace ID)
//	GET  /v1/jobs/{id}/events  live SSE stream of the job's trace events
//	GET  /healthz      liveness, queue depth, busy/worker counts, build
//	                   version, drain state
//	GET  /metricsz     full metrics snapshot (counters, gauges, histograms
//	                   with p50/p95/p99); add ?format=prometheus (or an
//	                   Accept: text/plain header) for the Prometheus text
//	                   exposition a scraper consumes
//
// Every POST accepts "async": true (202 + job id, poll /v1/jobs/{id}),
// "priority" (higher runs first), "timeout_ms" (per-job deadline) and
// "nocache" (force recomputation, skip the store).
//
// Every job is traced: admission, queue wait, worker execution and the
// engine phases share one trace whose IDs are deterministic in the
// request content and admission order (see internal/obs.NewTrace), so
// two daemons fed the same request sequence produce identical trace
// trees. Queue-wait and service-time are recorded as separate
// per-kind histograms (srv.queuewait.*, srv.service.*).
//
// Shutdown: SIGINT or SIGTERM stops accepting work (new submissions get
// 503), finishes every accepted job, flushes the trace, writes the run
// manifest, and exits 0 — a signal is a daemon's normal stop, not an
// interrupted experiment. A second signal kills the process immediately.
//
// Crash safety: with -journal FILE every admission is fsync'd before the
// client sees its job id; a daemon killed outright (kill -9, OOM, power)
// replays admitted-but-unfinished jobs on the next start under their
// original ids, resuming ATPG runs from their checkpoints. With
// -cache-dir the store verifies artifact content hashes on every read,
// quarantines corruption, and scrubs the whole cache at startup.
// -debug-failpoints exposes POST /debug/failpoints so the chaos harness
// (socload -chaos) can inject faults; it is off by default.
//
// Observability:
//
//	socd -trace run.jsonl    # structured JSONL trace of every job
//	socd -metrics            # end-of-run counters to stderr on shutdown
//	socd -json               # run manifest as JSON to stdout on shutdown
//	socd -manifest man.json  # also write the manifest to a file (atomic)
//
// Exit codes: 0 clean shutdown (including signal-initiated), 1 runtime
// failure, 2 usage error.
package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/cli"
	"repro/internal/par"
	"repro/internal/runctl"
	"repro/internal/srv"
	"repro/internal/store"
)

const prog = "socd"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	s := cli.NewSession(prog, stdout, stderr)
	var (
		addr       = s.Flags.String("addr", "127.0.0.1:8089", "listen address (host:port; port 0 picks a free port)")
		workers    = s.Flags.Int("workers", 0, "job worker pool size (0 = NumCPU)")
		cacheDir   = s.Flags.String("cache-dir", "", "content-addressed result cache directory (empty = caching disabled)")
		cacheMax   = s.Flags.Int64("cache-max-bytes", 0, "cache byte budget; least-recently-used artifacts are evicted past it (0 = unbounded)")
		queueSize  = s.Flags.Int("queue", 64, "job backlog bound; submissions past it are rejected with 503")
		jobTimeout = s.Flags.Duration("job-timeout", 5*time.Minute, "default per-job deadline (0 = none); requests may override with timeout_ms")
		journal    = s.Flags.String("journal", "", "durable job journal `file`; admitted jobs survive a crash and replay on the next start (empty = off)")
		debugFPs   = s.Flags.Bool("debug-failpoints", false, "expose POST /debug/failpoints for fault injection (chaos testing only; never on an untrusted network)")
	)
	s.JSONFlag("write the run manifest as JSON to stdout on shutdown")
	s.Flags.StringVar(&s.ManifestPath, "manifest", "", "write the run manifest to `file` on shutdown (atomic replace)")
	if code, ok := s.Parse(args); !ok {
		return code
	}
	if s.Flags.NArg() > 0 {
		return s.Usagef("unexpected argument %q; see -help", s.Flags.Arg(0))
	}

	// The server is always instrumented — /metricsz and the shutdown
	// manifest need a registry even when no observability flag was given.
	s.Instrument = true
	if code := s.Start(0); code != 0 {
		return code
	}
	col := s.Col()
	man := s.Man
	man.SetOption("addr", *addr)
	man.SetOption("workers", par.Workers(*workers))
	man.SetOption("queue", *queueSize)
	man.SetOption("job_timeout", jobTimeout.String())
	if *cacheDir != "" {
		man.SetOption("cache_dir", *cacheDir)
		man.SetOption("cache_max_bytes", *cacheMax)
	}
	if *journal != "" {
		man.SetOption("journal", *journal)
	}
	if *debugFPs {
		man.SetOption("debug_failpoints", true)
	}

	var st *store.Store
	if *cacheDir != "" {
		var err error
		st, err = store.Open(*cacheDir, *cacheMax, col)
		if err != nil {
			return s.Fail(cli.ExitRuntime, err)
		}
		// Walk the cache before serving from it: artifacts corrupted while
		// the daemon was down are quarantined now rather than discovered
		// (and recomputed) one miss at a time under load.
		if checked, corrupt := st.Scrub(); corrupt > 0 {
			s.Errorf("cache scrub quarantined %d of %d artifacts", corrupt, checked)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return s.Fail(cli.ExitRuntime, err)
	}
	server := srv.New(srv.Config{
		Workers:     *workers,
		QueueSize:   *queueSize,
		Store:       st,
		Col:         col,
		JobTimeout:  *jobTimeout,
		Version:     man.Version, // git describe, surfaced on /healthz
		JournalPath: *journal,
		Debug:       *debugFPs,
	})

	// The resolved address (meaningful with port 0) goes to stdout so a
	// supervisor or test can find the daemon.
	fmt.Fprintf(stdout, "%s: listening on http://%s\n", prog, ln.Addr())
	man.SetOption("listen", ln.Addr().String())

	httpSrv := &http.Server{Handler: server.Handler()}

	// First SIGINT/SIGTERM cancels ctx; a second one kills the process.
	ctx, interrupted, stopSignals := runctl.SignalContext(context.Background())
	defer stopSignals()
	// On signal: stop accepting connections and wait for in-flight
	// requests (context.AfterFunc supplies the goroutine, keeping the
	// daemon inside the repo's no-bare-goroutines discipline).
	stopAfter := context.AfterFunc(ctx, func() {
		_ = httpSrv.Shutdown(context.Background())
	})
	defer stopAfter()

	err = httpSrv.Serve(ln)
	if err != nil && err != http.ErrServerClosed {
		server.Drain()
		return s.Fail(cli.ExitRuntime, err)
	}

	// Connections are closed; now drain the job backlog (async jobs may
	// still be queued or running) so every accepted job lands in the store
	// before the process exits.
	server.Drain()
	man.SetResult("interrupted", interrupted())
	man.SetResult("drained", true)
	if code := s.Finish(); code != 0 {
		return code
	}
	fmt.Fprintf(stdout, "%s: drained, shut down cleanly\n", prog)
	return 0
}
