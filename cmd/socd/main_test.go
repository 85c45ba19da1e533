package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/cli"
)

// asMain, set in its environment, makes the test binary run as socd.
const asMain = "SOCD_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMain) != "" {
		main()
	}
	m.Run()
}

// binary returns the test binary itself, which the processes the test
// starts run as socd: signals, a crash and a live listener need a real
// process.
func binary(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("exec test skipped in -short mode")
	}
	t.Setenv(asMain, "1")
	return os.Args[0]
}

func exitCode(t *testing.T, err error) int {
	t.Helper()
	if err == nil {
		return 0
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("unexpected error kind: %v", err)
	}
	return ee.ExitCode()
}

// daemon is a running socd process plus its base URL and captured stdout.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	stdout *bytes.Buffer
	mu     *sync.Mutex
	eof    chan struct{} // closed when the stdout pump hits EOF
}

// startDaemon launches socd on a free port and waits for its listen line.
func startDaemon(t *testing.T, bin string, extra ...string) *daemon {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0"}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		}
	})

	// The first stdout line announces the resolved address; everything
	// after it (the -json manifest, the shutdown line) accumulates in the
	// buffer for later assertions.
	r := bufio.NewReader(pipe)
	line, err := r.ReadString('\n')
	if err != nil {
		t.Fatalf("no listen line: %v", err)
	}
	const marker = "listening on "
	i := strings.Index(line, marker)
	if i < 0 {
		t.Fatalf("unexpected first line %q", line)
	}
	base := strings.TrimSpace(line[i+len(marker):])

	d := &daemon{cmd: cmd, base: base, stdout: &bytes.Buffer{}, mu: &sync.Mutex{}, eof: make(chan struct{})}
	go func() {
		defer close(d.eof)
		var buf [4096]byte
		for {
			n, err := r.Read(buf[:])
			d.mu.Lock()
			d.stdout.Write(buf[:n])
			d.mu.Unlock()
			if err != nil {
				return
			}
		}
	}()
	return d
}

// wait drains stdout to EOF (so cmd.Wait cannot close the pipe under the
// pump and lose the shutdown output), then reaps the process and returns
// its exit code.
func (d *daemon) wait(t *testing.T) int {
	t.Helper()
	select {
	case <-d.eof:
	case <-time.After(2 * time.Minute):
		t.Fatal("daemon stdout never reached EOF")
	}
	return exitCode(t, d.cmd.Wait())
}

// output returns everything the daemon wrote to stdout after the listen
// line.
func (d *daemon) output() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stdout.String()
}

// post issues a JSON POST and returns status, X-Cache header and body.
func (d *daemon) post(t *testing.T, path, body string) (int, string, []byte) {
	t.Helper()
	resp, err := http.Post(d.base+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("X-Cache"), data
}

const tinyBench = `INPUT(a)
INPUT(b)
OUTPUT(y)
y = AND(a, b)
`

// TestWarmCacheByteIdentical is acceptance criterion (a): with a cache
// directory, a warm response is byte-identical to the cold one — across a
// daemon restart, because the artifacts persist on disk.
func TestWarmCacheByteIdentical(t *testing.T) {
	bin := binary(t)
	cacheDir := filepath.Join(t.TempDir(), "cache")
	req, _ := json.Marshal(map[string]any{"bench": tinyBench})

	d := startDaemon(t, bin, "-cache-dir", cacheDir)
	code, cache, cold := d.post(t, "/v1/atpg", string(req))
	if code != http.StatusOK {
		t.Fatalf("cold: %d %s", code, cold)
	}
	if cache != "miss" {
		t.Errorf("cold X-Cache = %q, want miss", cache)
	}
	code, cache, warm := d.post(t, "/v1/atpg", string(req))
	if code != http.StatusOK || cache != "hit" {
		t.Fatalf("warm: %d, X-Cache %q", code, cache)
	}
	if !bytes.Equal(cold, warm) {
		t.Errorf("warm response differs from cold:\ncold: %s\nwarm: %s", cold, warm)
	}

	// Restart over the same cache dir: still a hit, still identical.
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := d.wait(t); code != 0 {
		t.Fatalf("first daemon exit %d, want 0", code)
	}
	d2 := startDaemon(t, bin, "-cache-dir", cacheDir)
	code, cache, again := d2.post(t, "/v1/atpg", string(req))
	if code != http.StatusOK || cache != "hit" {
		t.Fatalf("restarted warm: %d, X-Cache %q", code, cache)
	}
	if !bytes.Equal(cold, again) {
		t.Error("response after restart differs from the original cold response")
	}
}

// TestConcurrentIdenticalRequestsCoalesce is acceptance criterion (b): K
// concurrent identical requests perform exactly one computation. A single
// worker plus a slow builtin TDV job keeps the window open; the metrics
// endpoint proves the execution count.
func TestConcurrentIdenticalRequestsCoalesce(t *testing.T) {
	bin := binary(t)
	d := startDaemon(t, bin, "-workers", "1", "-cache-dir", filepath.Join(t.TempDir(), "cache"))

	// Pin the worker with one stand-in ATPG job (slow enough to hold the
	// queue) submitted async so we don't block here.
	code, _, body := d.post(t, "/v1/atpg", `{"standin":"s953","async":true}`)
	if code != http.StatusAccepted {
		t.Fatalf("blocker: %d %s", code, body)
	}

	const k = 6
	req, _ := json.Marshal(map[string]any{"bench": tinyBench})
	var wg sync.WaitGroup
	results := make([][]byte, k)
	codes := make([]int, k)
	errs := make([]error, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(d.base+"/v1/atpg", "application/json", bytes.NewReader(req))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			results[i], errs[i] = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()
	for i := 0; i < k; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: %d %s", i, codes[i], results[i])
		}
		if !bytes.Equal(results[i], results[0]) {
			t.Errorf("request %d body differs", i)
		}
	}

	// The tiny bench must have been computed exactly once: executed counts
	// the blocker plus one coalesced run.
	resp, err := http.Get(d.base + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	// Allow for the blocker still running: the tiny job has executed, so
	// executed is 1 or 2 — but coalesced must show k-1 attached requests
	// when any coalescing happened, and executed must never exceed 2.
	executed := snap.Counters["srv.jobs.executed"]
	coalesced := snap.Counters["srv.jobs.coalesced"]
	served := snap.Counters["srv.cache.served"]
	if executed > 2 {
		t.Errorf("executed = %d: identical requests were recomputed", executed)
	}
	// Every duplicate was either coalesced onto the in-flight job or
	// served from the store after it completed; none may have computed.
	if coalesced+served != k-1 {
		t.Errorf("coalesced=%d + cache.served=%d = %d, want %d duplicates absorbed",
			coalesced, served, coalesced+served, k-1)
	}
}

// TestSigtermDrainsAndWritesManifest is acceptance criterion (c): SIGTERM
// drains in-flight jobs and writes a run manifest before a clean exit.
func TestSigtermDrainsAndWritesManifest(t *testing.T) {
	bin := binary(t)
	manPath := filepath.Join(t.TempDir(), "manifest.json")
	d := startDaemon(t, bin,
		"-workers", "1",
		"-cache-dir", filepath.Join(t.TempDir(), "cache"),
		"-manifest", manPath, "-json")

	// An in-flight job (async, so the daemon owns it outright) that is
	// still queued when the signal lands.
	code, _, body := d.post(t, "/v1/atpg", `{"standin":"s953","async":true}`)
	if code != http.StatusAccepted {
		t.Fatalf("async submit: %d %s", code, body)
	}
	var acc struct {
		Job string `json:"job"`
	}
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}

	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := d.wait(t); code != 0 {
		t.Fatalf("exit %d, want 0 (graceful drain)\nstdout: %s", code, d.output())
	}

	// The manifest file exists, is valid JSON, and records a completed
	// drain with the in-flight job executed, not abandoned.
	data, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatalf("manifest not written: %v", err)
	}
	var man struct {
		Tool    string         `json:"tool"`
		Results map[string]any `json:"results"`
		Metrics *struct {
			Counters map[string]int64 `json:"counters"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatalf("manifest not JSON: %v\n%s", err, data)
	}
	if man.Tool != "socd" {
		t.Errorf("manifest tool = %q", man.Tool)
	}
	if man.Results["drained"] != true {
		t.Errorf("manifest drained = %v, want true", man.Results["drained"])
	}
	if man.Results["interrupted"] != true {
		t.Errorf("manifest interrupted = %v, want true (SIGTERM arrived)", man.Results["interrupted"])
	}
	if man.Metrics == nil {
		t.Fatal("manifest carries no metrics snapshot")
	}
	if got := man.Metrics.Counters["srv.jobs.executed"]; got != 1 {
		t.Errorf("executed = %d, want 1: the queued job must run to completion during drain", got)
	}
	// -json wrote the same manifest to stdout.
	if !strings.Contains(d.output(), `"tool":"socd"`) && !strings.Contains(d.output(), `"tool": "socd"`) {
		t.Errorf("stdout missing -json manifest:\n%s", d.output())
	}
}

// TestHealthzAndDrainRejection checks the liveness endpoint and that a
// draining daemon turns new work away while finishing accepted work.
func TestHealthzAndDrainRejection(t *testing.T) {
	bin := binary(t)
	d := startDaemon(t, bin, "-workers", "1")

	resp, err := http.Get(d.base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		OK bool `json:"ok"`
	}
	err = json.NewDecoder(resp.Body).Decode(&hz)
	resp.Body.Close()
	if err != nil || !hz.OK {
		t.Fatalf("healthz = %+v, %v", hz, err)
	}

	// One TDV round trip proves the compute path end to end.
	code, _, body := d.post(t, "/v1/tdv", `{"builtin":"d695"}`)
	if code != http.StatusOK {
		t.Fatalf("tdv: %d %s", code, body)
	}
	var rep map[string]any
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("tdv response not JSON: %v", err)
	}

	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := d.wait(t); code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	if !strings.Contains(d.output(), "shut down cleanly") {
		t.Errorf("missing shutdown line:\n%s", d.output())
	}
}

// TestEventStreamOverSSE drives the live telemetry path at the process
// level: an async job is submitted while the single worker is pinned, a
// client subscribes to /v1/jobs/{id}/events mid-queue, and the stream
// must replay the buffered admission/queue events then follow the job
// live through the worker and engine to the terminal done record.
func TestEventStreamOverSSE(t *testing.T) {
	bin := binary(t)
	d := startDaemon(t, bin, "-workers", "1")

	// Pin the worker so the target job demonstrably queues.
	code, _, body := d.post(t, "/v1/atpg", `{"standin":"s953","async":true,"nocache":true}`)
	if code != http.StatusAccepted {
		t.Fatalf("blocker: %d %s", code, body)
	}
	req, _ := json.Marshal(map[string]any{"bench": tinyBench, "async": true, "nocache": true})
	code, _, body = d.post(t, "/v1/atpg", string(req))
	if code != http.StatusAccepted {
		t.Fatalf("target: %d %s", code, body)
	}
	var acc struct {
		Job    string `json:"job"`
		Trace  string `json:"trace"`
		Events string `json:"events"`
	}
	if err := json.Unmarshal(body, &acc); err != nil || acc.Job == "" {
		t.Fatalf("202 body %q", body)
	}
	if acc.Trace == "" || acc.Events != "/v1/jobs/"+acc.Job+"/events" {
		t.Fatalf("202 trace/events = %q/%q", acc.Trace, acc.Events)
	}

	resp, err := http.Get(d.base + acc.Events)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	// Read the stream to its done record: ids monotone from 0, every
	// trace record tied to the job's trace ID, the span tree spanning
	// admission -> queue -> worker -> engine.
	var (
		nextID int64
		names  []string
		last   string
	)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	event, done := "", false
	for !done && sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			id, perr := strconv.ParseInt(strings.TrimPrefix(line, "id: "), 10, 64)
			if perr != nil || id != nextID {
				t.Fatalf("id line %q, want id %d", line, nextID)
			}
			nextID++
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			var rec map[string]any
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &rec); err != nil {
				t.Fatalf("data not JSON: %v in %q", err, line)
			}
			switch event {
			case "trace":
				if rec["trace"] != acc.Trace {
					t.Fatalf("event trace = %v, want %q: %q", rec["trace"], acc.Trace, line)
				}
				if sp, _ := rec["span"].(string); sp == "" {
					t.Fatalf("event without span: %q", line)
				}
				name, _ := rec["event"].(string)
				names = append(names, name)
			case "done":
				if rec["job"] != acc.Job || rec["status"] != "done" {
					t.Fatalf("done record %q", line)
				}
				done = true
			case "gap":
				t.Fatalf("unexpected gap with the default ring size: %q", line)
			}
			last = event
		}
	}
	if !done {
		t.Fatalf("stream ended without done record (read %d events): %v", nextID, sc.Err())
	}
	if last != "done" {
		t.Errorf("last record = %q, want done", last)
	}
	if len(names) == 0 || names[0] != "srv.admit" {
		t.Fatalf("first event = %v, want srv.admit", names)
	}
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		seen[n] = true
	}
	for _, want := range []string{"srv.admit", "srv.queue.begin", "srv.queue.end", "srv.job.begin", "atpg.generate.begin", "atpg.generate.end", "srv.job.end"} {
		if !seen[want] {
			t.Errorf("stream missing %q; got %v", want, names)
		}
	}
}

// TestHealthzReportsBuildInfo checks the extended health payload at the
// process level: build version (git describe), worker capacity, busy
// count and the Go runtime version.
func TestHealthzReportsBuildInfo(t *testing.T) {
	bin := binary(t)
	d := startDaemon(t, bin, "-workers", "2")

	resp, err := http.Get(d.base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hz struct {
		OK      bool   `json:"ok"`
		Workers int    `json:"workers"`
		Busy    int    `json:"busy"`
		Queued  int    `json:"queued"`
		Version string `json:"version"`
		Go      string `json:"go"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if !hz.OK || hz.Workers != 2 {
		t.Errorf("healthz = %+v", hz)
	}
	if hz.Version == "" {
		t.Error("healthz version empty; want git describe or dev")
	}
	if !strings.HasPrefix(hz.Go, "go") {
		t.Errorf("healthz go = %q", hz.Go)
	}

	// The Prometheus exposition is live on the same daemon.
	presp, err := http.Get(d.base + "/metricsz?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer presp.Body.Close()
	prom, err := io.ReadAll(presp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# TYPE repro_srv_workers gauge", "repro_srv_workers 2"} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("prometheus exposition missing %q:\n%s", want, prom)
		}
	}
}

// socd runs the command in-process and returns its exit code and its
// stdout and stderr interleaved as a terminal shows them.
func socd(args ...string) (code int, out string) {
	var both bytes.Buffer
	code = run(args, &both, &both)
	return code, both.String()
}

// TestUsageErrors checks flag validation exits 2 before binding a port.
func TestUsageErrors(t *testing.T) {
	if code, out := socd("stray-arg"); code != cli.ExitUsage {
		t.Fatalf("exit %d, want %d\n%s", code, cli.ExitUsage, out)
	}
}

// TestRuntimeErrorExitsOne checks a bind failure is a runtime error.
func TestRuntimeErrorExitsOne(t *testing.T) {
	if code, out := socd("-addr", "256.256.256.256:1"); code != cli.ExitRuntime {
		t.Fatalf("exit %d, want %d\n%s", code, cli.ExitRuntime, out)
	}
}

func init() {
	// Exec tests build and signal real processes; give them room on slow
	// CI machines by extending the default HTTP client sanely.
	http.DefaultClient.Timeout = 2 * time.Minute
}
