package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/cli"
	"repro/internal/obs"
	"repro/internal/runctl"
	"repro/internal/srv"
	"repro/internal/store"
)

// startServer serves an in-process srv over a fresh temp-dir store and
// returns its host:port and metrics registry. wrap, when non-nil, sits
// between the client and the server's handler.
func startServer(t *testing.T, cfg srv.Config, wrap func(http.Handler) http.Handler) (string, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	cfg.Col = obs.New(reg, nil)
	st, err := store.Open(filepath.Join(t.TempDir(), "cache"), 0, cfg.Col)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store, cfg.Workers = st, 2
	s := srv.New(cfg)
	t.Cleanup(s.Drain)
	h := s.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return strings.TrimPrefix(ts.URL, "http://"), reg
}

// chaosConfig is a daemon the chaos mode can drive: failpoints armable
// over HTTP, and a journal so acknowledged jobs are durable.
func chaosConfig(t *testing.T) srv.Config {
	return srv.Config{Debug: true, JournalPath: filepath.Join(t.TempDir(), "journal.jsonl")}
}

// socload runs the command in-process and returns its exit code and
// output streams.
func socload(args ...string) (code int, stdout, stderr string) {
	var out, errs bytes.Buffer
	code = run(args, &out, &errs)
	return code, out.String(), errs.String()
}

var (
	summaryRE = regexp.MustCompile(`socload: (\d+) requests, (\d+) cache hits, (\d+) errors, (\d+) retries`)
	chaosRE   = regexp.MustCompile(`socload: chaos: (\d+) arms, (\d+) injected failures, (\d+) acked, (\d+) lost, (\d+) mismatches`)
)

// counts parses the numbers of the summary line re matches in out.
func counts(t *testing.T, re *regexp.Regexp, out string) []int {
	t.Helper()
	m := re.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no line matching %s in:\n%s", re, out)
	}
	n := make([]int, len(m)-1)
	for i, s := range m[1:] {
		n[i], _ = strconv.Atoi(s)
	}
	return n
}

// TestReplayVerifiesAndCounts is the replay's acceptance test: the
// catalog verifies warm = cold, exactly -requests requests run without
// an error, the warmed store serves hits, and the nocache fraction
// reaches the server's workers.
func TestReplayVerifiesAndCounts(t *testing.T) {
	addr, reg := startServer(t, srv.Config{}, nil)
	code, out, errs := socload("-addr", addr, "-concurrency", "2", "-requests", "200", "-seed", "7")
	if code != 0 {
		t.Fatalf("exit %d\n%s%s", code, out, errs)
	}
	if !strings.Contains(out, "verified 10 catalog entries warm==cold") {
		t.Errorf("stdout missing the verify line:\n%s", out)
	}
	n := counts(t, summaryRE, out)
	if n[0] != 200 || n[1] == 0 || n[2] != 0 {
		t.Errorf("summary = %d requests, %d hits, %d errors; want 200, > 0, 0", n[0], n[1], n[2])
	}
	if got := reg.Snapshot().Counters["srv.jobs.executed"]; got == 0 {
		t.Error("srv.jobs.executed = 0: the nocache fraction never reached a worker")
	}
}

// TestChaosKeepsEveryAcknowledgedJob runs one full failpoint rotation
// against a journaled daemon: no byte may differ from the baseline and
// none of the acknowledged jobs may be lost.
func TestChaosKeepsEveryAcknowledgedJob(t *testing.T) {
	defer runctl.DisarmAll()
	addr, _ := startServer(t, chaosConfig(t), nil)
	code, out, errs := socload("-addr", addr, "-concurrency", "2", "-requests", "200", "-chaos")
	if code != 0 {
		t.Fatalf("exit %d\n%s%s", code, out, errs)
	}
	n := counts(t, chaosRE, out)
	if n[0] < len(fpRotation) || n[2] == 0 || n[3] != 0 || n[4] != 0 {
		t.Errorf("chaos = %d arms, %d acked, %d lost, %d mismatches; want >= %d, > 0, 0, 0\n%s",
			n[0], n[2], n[3], n[4], len(fpRotation), out)
	}
}

// TestChaosWithoutDebugEndpointExitsOne checks -chaos refuses a daemon
// whose failpoints cannot be armed instead of running without faults.
func TestChaosWithoutDebugEndpointExitsOne(t *testing.T) {
	addr, _ := startServer(t, srv.Config{}, nil)
	code, _, errs := socload("-addr", addr, "-requests", "1", "-chaos")
	if code != cli.ExitRuntime || !strings.Contains(errs, "-debug-failpoints") {
		t.Errorf("exit %d, want %d with a -debug-failpoints diagnosis\n%s", code, cli.ExitRuntime, errs)
	}
}

// flipNth corrupts one byte of the nth 200 answer to a POST /v1/ request.
func flipNth(nth int64) func(http.Handler) http.Handler {
	var seen atomic.Int64
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPost || !strings.HasPrefix(r.URL.Path, "/v1/") {
				h.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			body := rec.Body.Bytes()
			if rec.Code == http.StatusOK && seen.Add(1) == nth {
				body[len(body)/2] ^= 1
			}
			for k, v := range rec.Header() {
				w.Header()[k] = v
			}
			w.WriteHeader(rec.Code)
			w.Write(body)
		})
	}
}

// TestCorruptBodyFailsTheRun shows the byte checks bite: one flipped byte
// stops the run in the verify pass, is counted as a chaos mismatch in the
// replay, and fails the re-verify after the disarm. A one-request replay
// answers 200 once, between the verify pass and the re-verify.
func TestCorruptBodyFailsTheRun(t *testing.T) {
	defer runctl.DisarmAll()
	verified := 2 * int64(len(catalog))
	for _, tc := range []struct {
		nth  int64
		want string
	}{
		{2, "warm response diverges from cold"},
		{verified + 1, "violated the crash contract (lost=0, mismatches=1)"},
		{verified + 2, "post-chaos reverify " + catalog[0].name + " failed"},
	} {
		addr, _ := startServer(t, chaosConfig(t), flipNth(tc.nth))
		code, out, errs := socload("-addr", addr, "-concurrency", "1", "-requests", "1", "-chaos")
		if code != cli.ExitRuntime || !strings.Contains(errs, tc.want) {
			t.Errorf("flip of answer %d: exit %d, want %d with %q\n%s%s", tc.nth, code, cli.ExitRuntime, tc.want, out, errs)
		}
		if tc.nth == verified+1 && strings.Contains(errs, "reverify") {
			t.Errorf("flip of the replay's answer failed the re-verify:\n%s", errs)
		}
	}
}

// TestForgottenJobFailsTheRun shows lost-job detection bites: the first
// poll of an acknowledged job answers 404, as if the daemon had forgotten
// it, and the run must count it lost and exit 1.
func TestForgottenJobFailsTheRun(t *testing.T) {
	defer runctl.DisarmAll()
	var polled atomic.Bool
	forget := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/") && !polled.Swap(true) {
				http.NotFound(w, r)
				return
			}
			h.ServeHTTP(w, r)
		})
	}
	addr, _ := startServer(t, chaosConfig(t), forget)
	code, out, errs := socload("-addr", addr, "-concurrency", "1", "-requests", "80", "-chaos", "-seed", "1")
	if code != cli.ExitRuntime {
		t.Fatalf("exit %d, want %d\n%s%s", code, cli.ExitRuntime, out, errs)
	}
	if n := counts(t, chaosRE, out); n[3] == 0 {
		t.Errorf("0 lost jobs counted\n%s", out)
	}
}

// TestUsageErrors checks flag validation exits 2 without touching the
// network.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},                               // missing -addr
		{"-addr", "x", "stray"},          // stray argument
		{"-addr", "x", "-requests", "0"}, // nothing to replay
		{"-addr", "x", "-concurrency", "0"},
		{"-addr", "x", "-duration", "1s"}, // removed option
	} {
		if code, _, errs := socload(args...); code != cli.ExitUsage {
			t.Errorf("args %v: exit %d, want %d\n%s", args, code, cli.ExitUsage, errs)
		}
	}
}

// TestUnreachableDaemonExitsOne checks a dead address is a runtime error
// before any request of the replay.
func TestUnreachableDaemonExitsOne(t *testing.T) {
	code, _, errs := socload("-addr", "127.0.0.1:1", "-requests", "1")
	if code != cli.ExitRuntime {
		t.Fatalf("exit %d, want %d\n%s", code, cli.ExitRuntime, errs)
	}
	if !strings.Contains(errs, "not healthy") {
		t.Errorf("stderr missing health diagnosis:\n%s", errs)
	}
}
