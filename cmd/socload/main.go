// socload replays a Zipf-distributed mix of ATPG, TDV and lint requests
// against a live socd daemon and writes the serving measurements as
// machine-readable JSON (BENCH_serving.json by default). It is the CI
// load and chaos driver; no report of it is committed.
//
// It verifies before it measures: every catalog entry is
// first issued twice and the two responses must be byte-identical (the
// serving layer's warm-equals-cold contract), or the program exits 1
// without writing numbers — a throughput measured on divergent output is
// meaningless. The verification pass doubles as a cache warm-up, so the
// timed run exercises the realistic steady state: mostly warm hits with
// a deterministic fraction of nocache requests forcing full queue +
// worker executions.
//
// The workload is deterministic in -seed: each worker draws catalog
// indices from its own seeded Zipf source, so two runs against identical
// daemons issue the same request mix. Client-side end-to-end latency is
// measured per kind (p50/p95/p99); server-side queue-wait and
// service-time quantiles are read back from /metricsz after the run.
//
// Backpressure: a 503 is retried with deterministic exponential backoff
// (10ms·2^attempt, capped at 1.28s — derived from the attempt counter,
// no wall-clock jitter), honoring the server's Retry-After when it asks
// for longer. Retries and rejections are counted in the report.
//
// Chaos mode (-chaos, against a socd started with -debug-failpoints):
// while the mix replays, worker 0 arms a rotating schedule of failpoints
// — store write/read faults, a worker panic, a journal append failure,
// an admission rejection — through the daemon's /debug/failpoints
// endpoint. Every successful response is compared byte-for-byte against
// the pre-verified baseline, a deterministic fraction of requests runs
// async and is polled to completion, and after the run the failpoints
// are disarmed and the whole catalog re-verified. The run fails (exit 1)
// on any wrong byte or any acknowledged-then-lost job — the two things
// fault injection must never be able to cause.
//
// Usage:
//
//	socload -addr 127.0.0.1:8089 [-concurrency 4] [-duration 10s]
//	        [-seed 1] [-zipf 1.3] [-chaos] [-o BENCH_serving.json]
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/runctl"
)

const prog = "socload"

// call is one catalog entry: a request the load mix draws from.
type call struct {
	name string // label in diagnostics
	kind string // "atpg", "tdv", "lint" — the histogram the server files it under
	path string
	body string
}

// tinyAnd and tinyMux are small inline netlists: their ATPG runs are
// milliseconds, so they model the short-job end of the mix while the
// s713 stand-in models the heavy tail.
const tinyAnd = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n"
const tinyMux = "INPUT(s)\nINPUT(a)\nINPUT(b)\nOUTPUT(y)\nns = NOT(s)\nta = AND(a, ns)\ntb = AND(b, s)\ny = OR(ta, tb)\n"

// catalog is the request mix, hot-first: the Zipf draw makes entry 0 the
// most frequent, so the cheap TDV builtins dominate and the heavy ATPG
// stand-in is the rare tail — the shape of real fleet traffic.
var catalog = []call{
	{name: "tdv/d695", kind: "tdv", path: "/v1/tdv", body: `{"builtin":"d695"}`},
	{name: "lint/bench", kind: "lint", path: "/v1/lint", body: fmt.Sprintf(`{"bench":%q}`, tinyAnd)},
	{name: "tdv/g1023", kind: "tdv", path: "/v1/tdv", body: `{"builtin":"g1023"}`},
	{name: "atpg/tiny-and", kind: "atpg", path: "/v1/atpg", body: fmt.Sprintf(`{"bench":%q}`, tinyAnd)},
	{name: "tdv/p22810", kind: "tdv", path: "/v1/tdv", body: `{"builtin":"p22810"}`},
	{name: "atpg/tiny-mux", kind: "atpg", path: "/v1/atpg", body: fmt.Sprintf(`{"bench":%q}`, tinyMux)},
	{name: "schedule/d695", kind: "schedule", path: "/v1/schedule", body: `{"builtin":"d695","tam":32}`},
	{name: "tdv/p93791", kind: "tdv", path: "/v1/tdv", body: `{"builtin":"p93791"}`},
	{name: "schedule/g1023", kind: "schedule", path: "/v1/schedule", body: `{"builtin":"g1023","tam":24}`},
	{name: "atpg/s713", kind: "atpg", path: "/v1/atpg", body: `{"standin":"s713"}`},
}

// kindStats is the per-kind client-side latency summary.
type kindStats struct {
	Requests int     `json:"requests"`
	CacheHit int     `json:"cache_hits"`
	P50Ms    float64 `json:"p50_ms"`
	P95Ms    float64 `json:"p95_ms"`
	P99Ms    float64 `json:"p99_ms"`
	MaxMs    float64 `json:"max_ms"`
}

// serverHist is a server-side histogram read back from /metricsz.
type serverHist struct {
	Count int64   `json:"count"`
	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	P99Ms float64 `json:"p99_ms"`
}

// chaosStats is what the chaos run must account for: every armed fault,
// every failure it caused, and proof that none of it lost an acknowledged
// job or corrupted a served byte.
type chaosStats struct {
	Arms             int  `json:"arms"`
	InjectedFailures int  `json:"injected_failures"` // client-visible failures carrying the chaos marker
	AckedJobs        int  `json:"acked_jobs"`        // async jobs the daemon acknowledged (202)
	LostJobs         int  `json:"lost_jobs"`         // acked jobs that never reached a terminal state: MUST be 0
	ByteMismatches   int  `json:"byte_mismatches"`   // responses diverging from the verified baseline: MUST be 0
	ReverifyOK       bool `json:"reverify_ok"`       // post-run, post-disarm catalog check
}

type report struct {
	Host struct {
		CPUs       int    `json:"cpus"`
		GoMaxProcs int    `json:"gomaxprocs"`
		GoVersion  string `json:"go_version"`
	} `json:"host"`
	Config struct {
		Addr        string  `json:"addr"`
		Concurrency int     `json:"concurrency"`
		DurationSec float64 `json:"duration_sec"`
		Seed        int64   `json:"seed"`
		ZipfS       float64 `json:"zipf_s"`
		Catalog     int     `json:"catalog_size"`
		NocacheOdds int     `json:"nocache_one_in"`
		Chaos       bool    `json:"chaos,omitempty"`
	} `json:"config"`
	Server struct {
		Version string `json:"version"`
	} `json:"server"`
	Totals struct {
		Requests      int     `json:"requests"`
		Errors        int     `json:"errors"`
		Retries       int     `json:"retries"`
		Rejected503   int     `json:"rejected_503"`
		ElapsedSec    float64 `json:"elapsed_sec"`
		ThroughputRPS float64 `json:"throughput_rps"`
		CacheHits     int     `json:"cache_hits"`
		CacheHitRatio float64 `json:"cache_hit_ratio"`
	} `json:"totals"`
	Kinds     map[string]kindStats  `json:"kinds"`
	QueueWait map[string]serverHist `json:"server_queuewait"`
	Service   map[string]serverHist `json:"server_service"`
	Chaos     *chaosStats           `json:"chaos,omitempty"`
}

// sample is one completed request as a worker records it.
type sample struct {
	kind string
	dur  time.Duration
	hit  bool
}

// workerOut is one worker's private result slot — no locks, merged after
// the pool drains.
type workerOut struct {
	samples  []sample
	errors   int
	retries  int
	rejected int
	chaos    chaosStats
}

// nocacheOneIn is the deterministic fraction of requests issued with
// "nocache": true, forcing the full queue + worker path so the timed run
// measures service time, not only the warm cache shortcut.
const nocacheOneIn = 8

// asyncOneIn is the deterministic fraction of chaos-mode requests issued
// asynchronously and polled to a terminal state — the "acknowledged job"
// population whose zero-loss the chaos run asserts.
const asyncOneIn = 16

// chaosArmEvery is how many of worker 0's requests pass between armings.
const chaosArmEvery = 20

// maxAttempts bounds the 503-retry loop per request.
const maxAttempts = 8

func main() { os.Exit(run()) }

func run() int {
	var (
		addr        = flag.String("addr", "", "daemon address (host:port, required)")
		concurrency = flag.Int("concurrency", 4, "concurrent client workers")
		duration    = flag.Duration("duration", 10*time.Second, "timed run length")
		seed        = flag.Int64("seed", 1, "workload seed; same seed = same request mix")
		zipfS       = flag.Float64("zipf", 1.3, "Zipf skew s (>1); larger = hotter head")
		chaos       = flag.Bool("chaos", false, "arm failpoints through the daemon's /debug/failpoints while replaying; assert zero wrong bytes and zero lost acknowledged jobs")
		out         = flag.String("o", "BENCH_serving.json", "output `file` for the JSON report")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		cli.Errorf(prog, "unexpected argument %q; see -help", flag.Arg(0))
		return cli.ExitUsage
	}
	if *addr == "" {
		cli.Errorf(prog, "-addr is required (a running socd, e.g. 127.0.0.1:8089)")
		return cli.ExitUsage
	}
	if *zipfS <= 1 {
		cli.Errorf(prog, "-zipf must be > 1 (got %g)", *zipfS)
		return cli.ExitUsage
	}
	if *concurrency < 1 {
		cli.Errorf(prog, "-concurrency must be >= 1")
		return cli.ExitUsage
	}
	base := "http://" + *addr

	var rep report
	rep.Host.CPUs = runtime.NumCPU()
	rep.Host.GoMaxProcs = runtime.GOMAXPROCS(0)
	rep.Host.GoVersion = runtime.Version()
	rep.Config.Addr = *addr
	rep.Config.Concurrency = *concurrency
	rep.Config.DurationSec = duration.Seconds()
	rep.Config.Seed = *seed
	rep.Config.ZipfS = *zipfS
	rep.Config.Catalog = len(catalog)
	rep.Config.NocacheOdds = nocacheOneIn
	rep.Config.Chaos = *chaos

	// The daemon must be up and healthy before anything is measured.
	version, err := health(base)
	if err != nil {
		cli.Errorf(prog, "daemon not healthy at %s: %v", *addr, err)
		return cli.ExitRuntime
	}
	rep.Server.Version = version

	if *chaos {
		// Probe the arming endpoint up front: a daemon without
		// -debug-failpoints would silently run a chaos-free "chaos" run.
		if err := armFailpoint(base, fpArm{Mode: "disarm-all"}); err != nil {
			cli.Errorf(prog, "-chaos needs socd started with -debug-failpoints: %v", err)
			return cli.ExitRuntime
		}
	}

	// Verify-then-measure: every catalog entry twice, byte-identical, or
	// no numbers at all. This also warms the daemon's cache, and the
	// retained bytes are the baseline chaos mode checks every response
	// against.
	baseline := make([][]byte, len(catalog))
	for i, c := range catalog {
		first, res1 := postRetry(context.Background(), base, c, false)
		if res1 != nil {
			cli.Errorf(prog, "verify %s: %v", c.name, res1)
			return cli.ExitRuntime
		}
		second, res2 := postRetry(context.Background(), base, c, false)
		if res2 != nil {
			cli.Errorf(prog, "verify %s (rerun): %v", c.name, res2)
			return cli.ExitRuntime
		}
		if !bytes.Equal(first.body, second.body) {
			cli.Errorf(prog, "verify %s: warm response diverges from cold — refusing to measure", c.name)
			return cli.ExitRuntime
		}
		baseline[i] = first.body
	}
	fmt.Printf("%s: verified %d catalog entries warm==cold, starting %s run\n",
		prog, len(catalog), duration)

	// Timed run: the wall clock lives in obs (the repo's GO002 rule), so
	// the elapsed time is an obs span around the pool.
	ctx, cancel := context.WithTimeout(context.Background(), *duration)
	defer cancel()
	outs := make([]workerOut, *concurrency)
	clock := obs.New(nil, nil)
	wall := clock.StartSpan("socload.run")
	pool := par.StartPool(*concurrency, func(id int) {
		outs[id] = loadWorker(ctx, base, *seed, id, *zipfS, *chaos, baseline)
	})
	pool.Wait()
	elapsed := wall.End()

	// Merge the per-worker slots.
	byKind := map[string][]time.Duration{}
	var cst chaosStats
	for _, o := range outs {
		rep.Totals.Errors += o.errors
		rep.Totals.Retries += o.retries
		rep.Totals.Rejected503 += o.rejected
		cst.Arms += o.chaos.Arms
		cst.InjectedFailures += o.chaos.InjectedFailures
		cst.AckedJobs += o.chaos.AckedJobs
		cst.LostJobs += o.chaos.LostJobs
		cst.ByteMismatches += o.chaos.ByteMismatches
		for _, s := range o.samples {
			rep.Totals.Requests++
			if s.hit {
				rep.Totals.CacheHits++
			}
			byKind[s.kind] = append(byKind[s.kind], s.dur)
		}
	}
	if rep.Totals.Requests == 0 {
		cli.Errorf(prog, "zero successful requests in %s — nothing to report", elapsed)
		return cli.ExitRuntime
	}
	rep.Totals.ElapsedSec = round3(elapsed.Seconds())
	rep.Totals.ThroughputRPS = round2(float64(rep.Totals.Requests) / elapsed.Seconds())
	rep.Totals.CacheHitRatio = round3(float64(rep.Totals.CacheHits) / float64(rep.Totals.Requests))

	rep.Kinds = map[string]kindStats{}
	hitsByKind := map[string]int{}
	for _, o := range outs {
		for _, s := range o.samples {
			if s.hit {
				hitsByKind[s.kind]++
			}
		}
	}
	for kind, durs := range byKind {
		sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
		rep.Kinds[kind] = kindStats{
			Requests: len(durs),
			CacheHit: hitsByKind[kind],
			P50Ms:    ms(quantileDur(durs, 0.50)),
			P95Ms:    ms(quantileDur(durs, 0.95)),
			P99Ms:    ms(quantileDur(durs, 0.99)),
			MaxMs:    ms(durs[len(durs)-1]),
		}
	}

	if *chaos {
		// Stand down every still-armed failpoint, then prove the daemon
		// serves the exact pre-chaos bytes for the whole catalog.
		if err := armFailpoint(base, fpArm{Mode: "disarm-all"}); err != nil {
			cli.Errorf(prog, "disarm-all after the run: %v", err)
			return cli.ExitRuntime
		}
		cst.ReverifyOK = true
		for i, c := range catalog {
			res, err := postRetry(context.Background(), base, c, false)
			if err != nil || !bytes.Equal(res.body, baseline[i]) {
				cst.ReverifyOK = false
				cst.ByteMismatches++
				cli.Errorf(prog, "post-chaos reverify %s failed (err=%v)", c.name, err)
			}
		}
		rep.Chaos = &cst
	}

	// Server-side queue-wait and service-time quantiles, straight from the
	// daemon's own histograms.
	rep.QueueWait, rep.Service, err = serverHistograms(base)
	if err != nil {
		cli.Errorf(prog, "reading /metricsz after the run: %v", err)
		return cli.ExitRuntime
	}

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		cli.Errorf(prog, "encode: %v", err)
		return cli.ExitRuntime
	}
	if err := runctl.WriteFileAtomic(*out, buf.Bytes()); err != nil {
		cli.Errorf(prog, "%v", err)
		return cli.ExitRuntime
	}
	fmt.Printf("%s: wrote %s (%d requests, %.1f req/s, %.1f%% cache hits, %d errors, %d retries)\n",
		prog, *out, rep.Totals.Requests, rep.Totals.ThroughputRPS,
		100*rep.Totals.CacheHitRatio, rep.Totals.Errors, rep.Totals.Retries)
	if *chaos {
		fmt.Printf("%s: chaos: %d arms, %d injected failures, %d acked jobs, %d lost, %d byte mismatches\n",
			prog, cst.Arms, cst.InjectedFailures, cst.AckedJobs, cst.LostJobs, cst.ByteMismatches)
		if cst.LostJobs > 0 || cst.ByteMismatches > 0 || !cst.ReverifyOK {
			cli.Errorf(prog, "chaos run violated the crash contract (lost=%d, mismatches=%d, reverify=%v)",
				cst.LostJobs, cst.ByteMismatches, cst.ReverifyOK)
			return cli.ExitRuntime
		}
	}
	return 0
}

// fpRotation is the chaos schedule worker 0 cycles through: every layer
// the crash contract covers gets a fault — the store's write and read
// paths, the worker (as a panic), the journal's fsync, and admission.
var fpRotation = []fpArm{
	{Name: "store.write", Mode: "error"},
	{Name: "store.read", Mode: "error"},
	{Name: "srv.worker", Mode: "panic"},
	{Name: "runctl.journal.append", Mode: "error"},
	{Name: "srv.admit", Mode: "error"},
}

// loadWorker is one client: a private seeded Zipf source over the
// catalog, issuing requests until the deadline. Request latency is
// measured with an obs span (obs owns the wall clock). In chaos mode
// every response is checked against the verified baseline, worker 0 arms
// the failpoint rotation, and a deterministic fraction of requests goes
// async and is polled to a terminal state.
func loadWorker(ctx context.Context, base string, seed int64, id int, zipfS float64, chaos bool, baseline [][]byte) workerOut {
	var o workerOut
	r := rand.New(rand.NewSource(seed + int64(id)*7919))
	zipf := rand.NewZipf(r, zipfS, 1, uint64(len(catalog)-1))
	clock := obs.New(nil, nil)
	issued := 0
	for ctx.Err() == nil {
		idx := int(zipf.Uint64())
		c := catalog[idx]
		nocache := r.Intn(nocacheOneIn) == 0
		if chaos && id == 0 && issued%chaosArmEvery == 0 {
			arm := fpRotation[(issued/chaosArmEvery)%len(fpRotation)]
			if err := armFailpoint(base, arm); err == nil {
				o.chaos.Arms++
			}
		}
		issued++
		if chaos && r.Intn(asyncOneIn) == 0 {
			runAsync(ctx, base, c, idx, nocache, baseline, &o)
			continue
		}
		span := clock.StartSpan("req")
		res, err := postRetry(ctx, base, c, nocache)
		d := span.End()
		o.retries += res.retries
		o.rejected += res.rejected
		if err != nil {
			if ctx.Err() != nil {
				break // deadline cut the request short; not a failure
			}
			if strings.Contains(err.Error(), "chaos-injected") {
				o.chaos.InjectedFailures++
			} else {
				o.errors++
			}
			continue
		}
		if len(res.body) == 0 {
			o.errors++
			continue
		}
		if chaos && !bytes.Equal(res.body, baseline[idx]) {
			o.chaos.ByteMismatches++
			continue
		}
		o.samples = append(o.samples, sample{kind: c.kind, dur: d, hit: res.hit})
	}
	return o
}

// runAsync issues one request with "async": true and polls the returned
// job to a terminal state. An acknowledged job (202) that never reaches
// one — or vanishes into a 404 — is a LOST job, the thing the crash
// contract forbids. Polling deliberately ignores the run deadline: the
// daemon owes us the job's completion once it acknowledged it.
func runAsync(ctx context.Context, base string, c call, idx int, nocache bool, baseline [][]byte, o *workerOut) {
	reqBody := strings.TrimSuffix(c.body, "}") + `,"async":true`
	if nocache {
		reqBody += `,"nocache":true`
	}
	reqBody += "}"
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+c.path, strings.NewReader(reqBody))
	if err != nil {
		o.errors++
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			o.errors++
		}
		return
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusAccepted:
		// fall through to polling
	case http.StatusOK:
		// A warm key answers synchronously even when async was requested —
		// that is a served response, not an acknowledged-queued job.
		if !bytes.Equal(data, baseline[idx]) {
			o.chaos.ByteMismatches++
		}
		return
	case http.StatusServiceUnavailable:
		o.rejected++ // never acknowledged; nothing owed
		return
	default:
		o.errors++
		return
	}
	var ack struct {
		Job string `json:"job"`
	}
	if err := json.Unmarshal(data, &ack); err != nil || ack.Job == "" {
		o.errors++
		return
	}
	o.chaos.AckedJobs++

	for i := 0; i < 2400; i++ { // 2400 × 25ms = 60s of patience
		st, ok := pollJob(base, ack.Job)
		if !ok {
			o.chaos.LostJobs++ // 404: the daemon forgot an acknowledged job
			return
		}
		switch st.Status {
		case "done":
			if !jsonEqual(st.Result, baseline[idx]) {
				o.chaos.ByteMismatches++
			}
			return
		case "failed":
			if strings.Contains(st.Error, "chaos-injected") {
				o.chaos.InjectedFailures++
			} else {
				o.errors++
			}
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
	o.chaos.LostJobs++ // acknowledged but never terminal
}

// pollJob fetches /v1/jobs/{id}; ok=false means the daemon answered 404.
func pollJob(base, id string) (st struct {
	Status string          `json:"status"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}, ok bool) {
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		return st, true // transient transport error: keep polling
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return st, false
	}
	_ = json.NewDecoder(resp.Body).Decode(&st)
	return st, true
}

// jsonEqual compares two JSON documents modulo whitespace: the polled
// job result is re-marshaled by the status endpoint, so the verbatim
// byte check relaxes to compacted equality there (and only there).
func jsonEqual(a, b []byte) bool {
	var ca, cb bytes.Buffer
	if json.Compact(&ca, a) != nil || json.Compact(&cb, b) != nil {
		return bytes.Equal(a, b)
	}
	return bytes.Equal(ca.Bytes(), cb.Bytes())
}

// fpArm is the /debug/failpoints request body.
type fpArm struct {
	Name string `json:"name,omitempty"`
	Nth  int    `json:"nth,omitempty"`
	Mode string `json:"mode"`
}

// armFailpoint drives the daemon's arming endpoint; any non-200 answer
// (404 without -debug-failpoints) is an error.
func armFailpoint(base string, arm fpArm) error {
	b, _ := json.Marshal(arm)
	resp, err := http.Post(base+"/debug/failpoints", "application/json", bytes.NewReader(b))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/debug/failpoints: %d %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return nil
}

// postResult is one logical request's outcome after retries.
type postResult struct {
	body     []byte
	hit      bool
	retries  int
	rejected int
}

// postRetry issues a synchronous request, retrying 503s with the
// deterministic backoff schedule. Transport errors and non-503 failures
// are returned immediately.
func postRetry(ctx context.Context, base string, c call, nocache bool) (postResult, error) {
	var res postResult
	for attempt := 0; ; attempt++ {
		body, status, retryAfter, hit, err := postOnce(ctx, base, c, nocache)
		if err != nil {
			return res, err
		}
		if status == http.StatusOK {
			res.body, res.hit = body, hit
			return res, nil
		}
		if status == http.StatusServiceUnavailable && attempt < maxAttempts-1 && ctx.Err() == nil {
			res.rejected++
			res.retries++
			time.Sleep(backoffFor(attempt, retryAfter))
			continue
		}
		return res, fmt.Errorf("%s: %d %s", c.path, status, bytes.TrimSpace(body))
	}
}

// backoffFor is the deterministic client backoff for 0-based attempt n:
// 10ms·2^n capped at 1.28s, no jitter — two runs with the same seed
// sleep the same schedule. A server Retry-After asking for longer wins,
// capped at 2s so a loaded server cannot stall the measurement loop.
func backoffFor(attempt, retryAfterSec int) time.Duration {
	d := 10 * time.Millisecond << uint(attempt)
	if d > 1280*time.Millisecond {
		d = 1280 * time.Millisecond
	}
	if ra := time.Duration(retryAfterSec) * time.Second; ra > d {
		if ra > 2*time.Second {
			ra = 2 * time.Second
		}
		if ra > d {
			d = ra
		}
	}
	return d
}

// postOnce issues one synchronous request and returns the response body,
// status, any Retry-After (seconds), and whether the daemon served it
// from its store. err is transport-level only; HTTP failures come back
// as the status code.
func postOnce(ctx context.Context, base string, c call, nocache bool) (body []byte, status, retryAfter int, cacheHit bool, err error) {
	reqBody := c.body
	if nocache {
		reqBody = strings.TrimSuffix(reqBody, "}") + `,"nocache":true}`
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+c.path, strings.NewReader(reqBody))
	if err != nil {
		return nil, 0, 0, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, 0, 0, false, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, 0, false, err
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		fmt.Sscanf(ra, "%d", &retryAfter)
	}
	return data, resp.StatusCode, retryAfter, resp.Header.Get("X-Cache") == "hit", nil
}

// health checks /healthz and returns the daemon's build version.
func health(base string) (string, error) {
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var hz struct {
		OK      bool   `json:"ok"`
		Version string `json:"version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		return "", err
	}
	if !hz.OK {
		return hz.Version, fmt.Errorf("daemon reports not ok (draining?)")
	}
	return hz.Version, nil
}

// serverHistograms reads /metricsz and extracts the per-kind queue-wait
// and service-time quantiles the server measured for itself.
func serverHistograms(base string) (queuewait, service map[string]serverHist, err error) {
	resp, err := http.Get(base + "/metricsz")
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, nil, err
	}
	queuewait, service = map[string]serverHist{}, map[string]serverHist{}
	for name, h := range snap.Histograms {
		var dst map[string]serverHist
		var kind string
		switch {
		case strings.HasPrefix(name, "srv.queuewait."):
			dst, kind = queuewait, strings.TrimPrefix(name, "srv.queuewait.")
		case strings.HasPrefix(name, "srv.service."):
			dst, kind = service, strings.TrimPrefix(name, "srv.service.")
		default:
			continue
		}
		dst[kind] = serverHist{
			Count: h.Count,
			P50Ms: round3(1000 * h.P50),
			P95Ms: round3(1000 * h.P95),
			P99Ms: round3(1000 * h.P99),
		}
	}
	return queuewait, service, nil
}

// quantileDur picks the q-th quantile of an ascending-sorted slice.
func quantileDur(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

func ms(d time.Duration) float64 { return round3(float64(d.Microseconds()) / 1000) }
func round2(v float64) float64   { return float64(int64(v*100+0.5)) / 100 }
func round3(v float64) float64   { return float64(int64(v*1000+0.5)) / 1000 }
