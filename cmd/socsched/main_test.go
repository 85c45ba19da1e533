package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/cli"
)

// The exec-level tests share one socsched binary: buildBinary compiles it on
// first use and TestMain removes it after the last test.
var (
	buildOnce sync.Once
	buildDir  string
	builtBin  string
	buildErr  error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if buildDir != "" {
		os.RemoveAll(buildDir)
	}
	os.Exit(code)
}

// buildBinary returns the path of the socsched binary, compiling it once per
// test binary. Exec-level tests need the real process: signal handling,
// exit codes and flushed output only exist there.
func buildBinary(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("exec test skipped in -short mode")
	}
	buildOnce.Do(func() {
		if buildDir, buildErr = os.MkdirTemp("", "socsched-test-"); buildErr != nil {
			return
		}
		bin := filepath.Join(buildDir, "socsched")
		if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("go build: %v\n%s", err, out)
			return
		}
		builtBin = bin
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return builtBin
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

// TestScheduleArtifactDeterministicAcrossWorkersAndRestarts is the
// acceptance gate at the process level: the sweep artifact must be
// byte-identical for every -workers value, and the single-width schedule
// byte-identical across fresh process invocations (checkpointless
// restart — no state carries over).
func TestScheduleArtifactDeterministicAcrossWorkersAndRestarts(t *testing.T) {
	bin := buildBinary(t)
	dir := t.TempDir()

	var ref []byte
	for _, workers := range []string{"1", "2", "4", "8"} {
		out := filepath.Join(dir, "sweep-"+workers+".json")
		cmd := exec.Command(bin, "-soc", "g1023", "-workers", workers, "-out", out)
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("workers=%s: %v\n%s", workers, err, b)
		}
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = b
			continue
		}
		if !bytes.Equal(b, ref) {
			t.Fatalf("-workers %s artifact differs", workers)
		}
	}

	var schedRef []byte
	for run := 0; run < 2; run++ {
		out := filepath.Join(dir, fmt.Sprintf("sched-%d.json", run))
		cmd := exec.Command(bin, "-soc", "d695", "-tam", "32", "-out", out)
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("run %d: %v\n%s", run, err, b)
		}
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if schedRef == nil {
			schedRef = b
			continue
		}
		if !bytes.Equal(b, schedRef) {
			t.Fatal("restarted process produced a different schedule artifact")
		}
	}

	var sch struct {
		SOC        string  `json:"soc"`
		TotalTime  int64   `json:"total_time"`
		LowerBound int64   `json:"lower_bound"`
		LBRatio    float64 `json:"lb_ratio"`
	}
	if err := json.Unmarshal(schedRef, &sch); err != nil {
		t.Fatal(err)
	}
	if sch.SOC != "d695" || sch.TotalTime <= 0 {
		t.Fatalf("implausible artifact: %+v", sch)
	}
	if sch.TotalTime > 2*sch.LowerBound {
		t.Fatalf("total %d exceeds 2x lower bound %d", sch.TotalTime, sch.LowerBound)
	}
}

func TestManifestJSON(t *testing.T) {
	bin := buildBinary(t)
	out, err := exec.Command(bin, "-soc", "h953", "-tam", "32", "-json").Output()
	if err != nil {
		t.Fatalf("%v", err)
	}
	var man struct {
		Tool    string         `json:"tool"`
		Results map[string]any `json:"results"`
	}
	if err := json.Unmarshal(out, &man); err != nil {
		t.Fatalf("manifest not JSON: %v\n%s", err, out)
	}
	if man.Tool != "socsched" {
		t.Fatalf("tool = %q", man.Tool)
	}
	if _, ok := man.Results["total_time"]; !ok {
		t.Fatalf("manifest missing total_time: %v", man.Results)
	}
}

func TestUsageErrors(t *testing.T) {
	bin := buildBinary(t)
	out, err := exec.Command(bin, "-tam", "32").CombinedOutput()
	if code := exitCode(t, err); code != cli.ExitUsage {
		t.Fatalf("-tam without -soc: exit %d, want %d\n%s", code, cli.ExitUsage, out)
	}
	out, err = exec.Command(bin, "stray").CombinedOutput()
	if code := exitCode(t, err); code != cli.ExitUsage {
		t.Fatalf("stray arg: exit %d, want %d\n%s", code, cli.ExitUsage, out)
	}
	out, err = exec.Command(bin, "-soc", "nope", "-tam", "32").CombinedOutput()
	if code := exitCode(t, err); code != cli.ExitRuntime {
		t.Fatalf("unknown soc: exit %d, want %d\n%s", code, cli.ExitRuntime, out)
	}
	if !strings.Contains(string(out), "unknown SOC") {
		t.Fatalf("error message lost: %s", out)
	}
}

func TestHumanTables(t *testing.T) {
	bin := buildBinary(t)
	out, err := exec.Command(bin, "-soc", "d695").CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(string(out), "d695 TAM-width sweep") {
		t.Fatalf("sweep table missing:\n%s", out)
	}
	out, err = exec.Command(bin, "-soc", "d695", "-tam", "16").CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(string(out), "abort-on-fail") {
		t.Fatalf("abort ordering missing:\n%s", out)
	}
}
