// socload replays a seeded Zipf mix of ATPG, TDV, lint and schedule
// requests against a running socd and checks the two promises of the
// serving layer that only a live daemon can break. It measures nothing:
// socbench's serve_warm and serve_churn workloads are the serving
// benchmark.
//
// Warm equals cold: every catalog entry is first issued twice and the two
// responses must be byte-identical, or the program exits 1 before the
// replay. The verify pass also warms the daemon's store, so the replay
// runs mostly on warm hits, and one request in eight is sent "nocache" to
// push it through the queue and a worker.
//
// The replay issues exactly -requests requests, split across -concurrency
// workers. Each worker draws catalog indices from its own Zipf source
// seeded by -seed and its index, so a seed fixes the request sequence. A
// 503 is retried with deterministic exponential backoff (10ms·2^attempt,
// capped at 1.28s, no jitter), or the server's Retry-After when that is
// longer. A run without -chaos exits 1 on any failed request.
//
// Chaos mode (-chaos, against a socd started with -debug-failpoints):
// while the mix replays, worker 0 arms a rotating schedule of failpoints
// (store write and read faults, a worker panic, a journal append failure,
// an admission rejection) through the daemon's /debug/failpoints
// endpoint. Every successful response is compared byte for byte with the
// verified baseline, one request in sixteen runs async and is polled to a
// terminal state, and after the replay the failpoints are disarmed and the
// whole catalog verified again. The run exits 1 on any wrong byte or any
// acknowledged job that is lost, the two things fault injection must
// never cause.
//
// Usage:
//
//	socload -addr 127.0.0.1:8089 [-concurrency 4] [-requests 1000]
//	        [-seed 1] [-chaos]
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/par"
)

const prog = "socload"

// call is one catalog entry: a request the load mix draws from.
type call struct {
	name string // label in diagnostics
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
	{name: "tdv/d695", path: "/v1/tdv", body: `{"builtin":"d695"}`},
	{name: "lint/bench", path: "/v1/lint", body: fmt.Sprintf(`{"bench":%q}`, tinyAnd)},
	{name: "tdv/g1023", path: "/v1/tdv", body: `{"builtin":"g1023"}`},
	{name: "atpg/tiny-and", path: "/v1/atpg", body: fmt.Sprintf(`{"bench":%q}`, tinyAnd)},
	{name: "tdv/p22810", path: "/v1/tdv", body: `{"builtin":"p22810"}`},
	{name: "atpg/tiny-mux", path: "/v1/atpg", body: fmt.Sprintf(`{"bench":%q}`, tinyMux)},
	{name: "schedule/d695", path: "/v1/schedule", body: `{"builtin":"d695","tam":32}`},
	{name: "tdv/p93791", path: "/v1/tdv", body: `{"builtin":"p93791"}`},
	{name: "schedule/g1023", path: "/v1/schedule", body: `{"builtin":"g1023","tam":24}`},
	{name: "atpg/s713", path: "/v1/atpg", body: `{"standin":"s713"}`},
}

// tally is one worker's counts, merged after the pool drains. The chaos
// fields account for every armed fault and every failure it caused, and
// hold the two numbers that must stay 0: lost and mismatches.
type tally struct {
	requests, hits, errors, retries int

	arms       int
	injected   int // failures carrying the chaos marker
	acked      int // async jobs the daemon acknowledged (202)
	lost       int // acknowledged jobs that never reached a terminal state
	mismatches int // responses diverging from the verified baseline
}

func (t *tally) add(o tally) {
	t.requests += o.requests
	t.hits += o.hits
	t.errors += o.errors
	t.retries += o.retries
	t.arms += o.arms
	t.injected += o.injected
	t.acked += o.acked
	t.lost += o.lost
	t.mismatches += o.mismatches
}

const (
	// zipfS is the skew of the catalog draw; socbench draws with it too.
	zipfS = 1.3
	// nocacheOneIn is the fraction of requests sent "nocache": true, so
	// the replay runs the queue and the workers, not only warm hits.
	nocacheOneIn = 8
	// asyncOneIn is the fraction of chaos-mode requests sent async and
	// polled to a terminal state: the acknowledged jobs none of which may
	// be lost.
	asyncOneIn = 16
	// chaosArmEvery is how many of worker 0's requests pass between
	// armings.
	chaosArmEvery = 20
	// maxAttempts bounds the 503-retry loop per request.
	maxAttempts = 8
	// chaosMarker is in every error an armed failpoint injects.
	chaosMarker = "chaos-injected"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(prog, flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "", "daemon address (host:port, required)")
	concurrency := fs.Int("concurrency", 4, "concurrent client workers")
	requests := fs.Int("requests", 1000, "total requests of the replay, split across the workers")
	seed := fs.Int64("seed", 1, "workload seed; same seed = same request sequence")
	chaos := fs.Bool("chaos", false, "arm failpoints through the daemon's /debug/failpoints while replaying; assert zero wrong bytes and zero lost acknowledged jobs")
	if err := fs.Parse(args); err != nil {
		return cli.ExitUsage
	}
	errorf := func(format string, a ...any) {
		fmt.Fprintf(stderr, "%s: %s\n", prog, fmt.Sprintf(format, a...))
	}
	switch {
	case fs.NArg() > 0:
		errorf("unexpected argument %q; see -help", fs.Arg(0))
		return cli.ExitUsage
	case *addr == "":
		errorf("-addr is required (a running socd, e.g. 127.0.0.1:8089)")
		return cli.ExitUsage
	case *concurrency < 1:
		errorf("-concurrency must be >= 1")
		return cli.ExitUsage
	case *requests < 1:
		errorf("-requests must be >= 1")
		return cli.ExitUsage
	}
	base := "http://" + *addr

	if err := health(base); err != nil {
		errorf("daemon not healthy at %s: %v", *addr, err)
		return cli.ExitRuntime
	}
	if *chaos {
		// Probe the arming endpoint up front: a daemon without
		// -debug-failpoints would silently run a chaos-free "chaos" run.
		if err := armFailpoint(base, fpArm{Mode: "disarm-all"}); err != nil {
			errorf("-chaos needs socd started with -debug-failpoints: %v", err)
			return cli.ExitRuntime
		}
	}

	// Every catalog entry twice, byte-identical, or no replay. The
	// retained bytes are the baseline chaos mode checks every response
	// against.
	var total tally
	baseline := make([][]byte, len(catalog))
	for i, c := range catalog {
		var runs [2][]byte
		for k := range runs {
			a, err := postRetry(base, c, "", &total)
			if err != nil {
				errorf("verify %s: %v", c.name, err)
				return cli.ExitRuntime
			}
			runs[k] = a.body
		}
		if !bytes.Equal(runs[0], runs[1]) {
			errorf("verify %s: warm response diverges from cold", c.name)
			return cli.ExitRuntime
		}
		baseline[i] = runs[0]
	}
	fmt.Fprintf(stdout, "%s: verified %d catalog entries warm==cold, replaying %d requests\n",
		prog, len(catalog), *requests)

	outs := make([]tally, *concurrency)
	pool := par.StartPool(*concurrency, func(id int) {
		n := *requests / *concurrency
		if id < *requests%*concurrency {
			n++
		}
		outs[id] = replay(base, *seed, id, n, *chaos, baseline)
	})
	pool.Wait()
	for _, o := range outs {
		total.add(o)
	}

	if *chaos {
		// Stand down every still-armed failpoint, then prove the daemon
		// serves the exact pre-chaos bytes for the whole catalog.
		if err := armFailpoint(base, fpArm{Mode: "disarm-all"}); err != nil {
			errorf("disarm-all after the replay: %v", err)
			return cli.ExitRuntime
		}
		for i, c := range catalog {
			a, err := postRetry(base, c, "", &total)
			if err != nil || !bytes.Equal(a.body, baseline[i]) {
				total.mismatches++
				errorf("post-chaos reverify %s failed (err=%v)", c.name, err)
			}
		}
	}

	fmt.Fprintf(stdout, "%s: %d requests, %d cache hits, %d errors, %d retries\n",
		prog, total.requests, total.hits, total.errors, total.retries)
	if *chaos {
		fmt.Fprintf(stdout, "%s: chaos: %d arms, %d injected failures, %d acked, %d lost, %d mismatches\n",
			prog, total.arms, total.injected, total.acked, total.lost, total.mismatches)
		if total.lost > 0 || total.mismatches > 0 {
			errorf("chaos run violated the crash contract (lost=%d, mismatches=%d)", total.lost, total.mismatches)
			return cli.ExitRuntime
		}
	} else if total.errors > 0 {
		errorf("%d of %d requests failed against a healthy daemon", total.errors, total.requests)
		return cli.ExitRuntime
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

// replay is one client issuing its n requests: a private seeded Zipf
// source over the catalog, one request at a time. In chaos mode every
// response is checked against the verified baseline, worker 0 arms the
// failpoint rotation, and a fraction of the requests goes async and is
// polled to a terminal state.
func replay(base string, seed int64, id, n int, chaos bool, baseline [][]byte) tally {
	var t tally
	r := rand.New(rand.NewSource(seed + int64(id)*7919))
	zipf := rand.NewZipf(r, zipfS, 1, uint64(len(catalog)-1))
	for i := 0; i < n; i++ {
		idx := int(zipf.Uint64())
		extra := ""
		if r.Intn(nocacheOneIn) == 0 {
			extra = `,"nocache":true`
		}
		if chaos && id == 0 && i%chaosArmEvery == 0 {
			if armFailpoint(base, fpRotation[(i/chaosArmEvery)%len(fpRotation)]) == nil {
				t.arms++
			}
		}
		if chaos && r.Intn(asyncOneIn) == 0 {
			extra += `,"async":true`
		}
		t.requests++
		a, err := postRetry(base, catalog[idx], extra, &t)
		same := bytes.Equal
		if err == nil && a.status == http.StatusAccepted {
			// An acknowledged job: the daemon owes its completion. A warm
			// key answers 200 even when async was asked for.
			t.acked++
			var lost bool
			a.body, lost, err = await(base, a.body)
			if lost {
				t.lost++
				continue
			}
			same = jsonEqual
		}
		switch {
		case err != nil && strings.Contains(err.Error(), chaosMarker):
			t.injected++
		case err != nil || len(a.body) == 0:
			t.errors++
		case chaos && !same(a.body, baseline[idx]):
			t.mismatches++
		case a.hit:
			t.hits++
		}
	}
	return t
}

// await polls an acknowledged job, given the body of its 202, to a
// terminal state and returns its result. lost reports a job the daemon
// answered 404 for or did not finish within a minute: the crash contract
// forbids both.
func await(base string, ack []byte) (result []byte, lost bool, err error) {
	var a struct {
		Job string `json:"job"`
	}
	if err := json.Unmarshal(ack, &a); err != nil || a.Job == "" {
		return nil, false, fmt.Errorf("malformed acknowledgement %q", bytes.TrimSpace(ack))
	}
	for i := 0; i < 2400; i++ { // 2400 × 25ms = 60s of patience
		var st struct {
			Status string          `json:"status"`
			Error  string          `json:"error"`
			Result json.RawMessage `json:"result"`
		}
		resp, err := http.Get(base + "/v1/jobs/" + a.Job)
		if err == nil { // a transport error is transient: keep polling
			if resp.StatusCode == http.StatusNotFound {
				resp.Body.Close()
				return nil, true, nil
			}
			_ = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
		}
		switch st.Status {
		case "done":
			return st.Result, false, nil
		case "failed":
			return nil, false, fmt.Errorf("job %s failed: %s", a.Job, st.Error)
		}
		time.Sleep(25 * time.Millisecond)
	}
	return nil, true, nil
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

// answer is one HTTP response as socload reads it.
type answer struct {
	status int
	body   []byte
	hit    bool // served from the daemon's store (X-Cache: hit)
}

// postRetry issues one request, with extra appended to the fields of the
// catalog body, and retries 503s with the deterministic backoff schedule,
// counting each retry in t. A 2xx answer is returned; transport errors
// and any other status are errors.
func postRetry(base string, c call, extra string, t *tally) (answer, error) {
	body := strings.TrimSuffix(c.body, "}") + extra + "}"
	for attempt := 0; ; attempt++ {
		resp, err := http.Post(base+c.path, "application/json", strings.NewReader(body))
		if err != nil {
			return answer{}, err
		}
		a := answer{status: resp.StatusCode, hit: resp.Header.Get("X-Cache") == "hit"}
		retryAfter := 0 // seconds; absent or malformed asks for nothing longer
		fmt.Sscanf(resp.Header.Get("Retry-After"), "%d", &retryAfter)
		a.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		switch {
		case err != nil:
			return answer{}, err
		case a.status/100 == 2:
			return a, nil
		case a.status == http.StatusServiceUnavailable && attempt < maxAttempts-1:
			t.retries++
			time.Sleep(backoffFor(attempt, retryAfter))
			continue
		}
		return a, fmt.Errorf("%s: %d %s", c.path, a.status, bytes.TrimSpace(a.body))
	}
}

// backoffFor is the deterministic client backoff for 0-based attempt n:
// 10ms·2^n capped at 1.28s, no jitter — two runs with the same seed
// sleep the same schedule. A server Retry-After asking for longer wins,
// capped at 2s so a loaded server cannot stall the replay.
func backoffFor(attempt, retryAfterSec int) time.Duration {
	d := 10 * time.Millisecond << uint(attempt)
	if d > 1280*time.Millisecond {
		d = 1280 * time.Millisecond
	}
	if ra := min(time.Duration(retryAfterSec)*time.Second, 2*time.Second); ra > d {
		d = ra
	}
	return d
}

// health checks that /healthz answers ok.
func health(base string) error {
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var hz struct {
		OK bool `json:"ok"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		return err
	}
	if !hz.OK {
		return fmt.Errorf("daemon reports not ok (draining?)")
	}
	return nil
}
