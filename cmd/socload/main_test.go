package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"

	"repro/internal/cli"
)

// The exec-level tests share one socload and one socd binary:
// buildBinaries compiles them on first use and TestMain removes them
// after the last test.
var (
	buildOnce         sync.Once
	buildDir          string
	builtLoad, builtD string
	buildErr          error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if buildDir != "" {
		os.RemoveAll(buildDir)
	}
	os.Exit(code)
}

// buildBinaries returns the paths of socload and socd, compiling them once
// per test binary; the harness is only meaningful against a live daemon,
// so its tests exec both real binaries.
func buildBinaries(t *testing.T) (load, daemon string) {
	t.Helper()
	if testing.Short() {
		t.Skip("exec test skipped in -short mode")
	}
	buildOnce.Do(func() {
		if buildDir, buildErr = os.MkdirTemp("", "socload-test-"); buildErr != nil {
			return
		}
		load, daemon := filepath.Join(buildDir, "socload"), filepath.Join(buildDir, "socd")
		for _, b := range []struct{ bin, pkg string }{{load, "."}, {daemon, "../socd"}} {
			if out, err := exec.Command("go", "build", "-o", b.bin, b.pkg).CombinedOutput(); err != nil {
				buildErr = fmt.Errorf("go build %s: %v\n%s", b.pkg, err, out)
				return
			}
		}
		builtLoad, builtD = load, daemon
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return builtLoad, builtD
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

// startDaemon launches socd on a free port and returns host:port.
func startDaemon(t *testing.T, bin string) string {
	t.Helper()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-workers", "2",
		"-cache-dir", filepath.Join(t.TempDir(), "cache"))
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Signal(syscall.SIGTERM)
		_, _ = cmd.Process.Wait()
	})
	line, err := bufio.NewReader(pipe).ReadString('\n')
	if err != nil {
		t.Fatalf("no listen line: %v", err)
	}
	const marker = "listening on http://"
	i := strings.Index(line, marker)
	if i < 0 {
		t.Fatalf("unexpected first line %q", line)
	}
	return strings.TrimSpace(line[i+len(marker):])
}

// TestLoadRunWritesReport is the harness acceptance test: a short run
// against a real daemon verifies the catalog, sustains non-zero
// throughput, and writes a well-formed report with client latencies and
// the server's own queue-wait/service histograms.
func TestLoadRunWritesReport(t *testing.T) {
	load, daemon := buildBinaries(t)
	addr := startDaemon(t, daemon)
	out := filepath.Join(t.TempDir(), "BENCH_serving.json")

	cmd := exec.Command(load,
		"-addr", addr, "-concurrency", "2", "-duration", "2s", "-seed", "7", "-o", out)
	stdout, err := cmd.CombinedOutput()
	if code := exitCode(t, err); code != 0 {
		t.Fatalf("socload exit %d\n%s", code, stdout)
	}
	if !strings.Contains(string(stdout), "verified") {
		t.Errorf("stdout missing verification line:\n%s", stdout)
	}

	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("report not written: %v", err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report not JSON: %v\n%s", err, data)
	}
	if rep.Totals.Requests == 0 || rep.Totals.ThroughputRPS <= 0 {
		t.Errorf("empty run: %+v", rep.Totals)
	}
	if rep.Totals.Errors != 0 {
		t.Errorf("%d request errors against a healthy daemon", rep.Totals.Errors)
	}
	if rep.Totals.CacheHitRatio <= 0 {
		t.Errorf("cache hit ratio = %v after a warming verify pass", rep.Totals.CacheHitRatio)
	}
	if rep.Config.Seed != 7 || rep.Config.Concurrency != 2 {
		t.Errorf("config not recorded: %+v", rep.Config)
	}
	if len(rep.Kinds) == 0 {
		t.Error("no per-kind latency sections")
	}
	for kind, ks := range rep.Kinds {
		if ks.Requests == 0 || ks.P50Ms < 0 || ks.P99Ms < ks.P50Ms {
			t.Errorf("kind %s stats malformed: %+v", kind, ks)
		}
	}
	// The nocache fraction forces real executions, so the server-side
	// histograms must have fired during the timed window.
	var queued int64
	for _, h := range rep.QueueWait {
		queued += h.Count
	}
	if queued == 0 {
		t.Error("server queue-wait histograms empty; nocache fraction never executed")
	}
}

// TestUsageErrors checks flag validation exits 2 without touching the
// network.
func TestUsageErrors(t *testing.T) {
	load, _ := buildBinaries(t)
	for _, args := range [][]string{
		{},                             // missing -addr
		{"-addr", "x", "stray"},        // stray argument
		{"-addr", "x", "-zipf", "0.5"}, // invalid skew
	} {
		out, err := exec.Command(load, args...).CombinedOutput()
		if code := exitCode(t, err); code != cli.ExitUsage {
			t.Errorf("args %v: exit %d, want %d\n%s", args, code, cli.ExitUsage, out)
		}
	}
}

// TestUnreachableDaemonExitsOne checks a dead address is a runtime error
// before any measurement.
func TestUnreachableDaemonExitsOne(t *testing.T) {
	load, _ := buildBinaries(t)
	out, err := exec.Command(load, "-addr", "127.0.0.1:1", "-duration", "1s").CombinedOutput()
	if code := exitCode(t, err); code != cli.ExitRuntime {
		t.Fatalf("exit %d, want %d\n%s", code, cli.ExitRuntime, out)
	}
	if !strings.Contains(string(out), "not healthy") {
		t.Errorf("stderr missing health diagnosis:\n%s", out)
	}
}
