package main

import (
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

// The exec-level tests share one socx binary: buildBinary compiles it on
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

// buildBinary returns the path of the socx binary, compiling it once per
// test binary. Exec-level tests need the real process: signal handling,
// exit codes and flushed output only exist there.
func buildBinary(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("exec test skipped in -short mode")
	}
	buildOnce.Do(func() {
		if buildDir, buildErr = os.MkdirTemp("", "socx-test-"); buildErr != nil {
			return
		}
		bin := filepath.Join(buildDir, "socx")
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

// TestLintPreflightPasses: the committed SOC1/SOC2 profiles must clear
// the linter, so -lint changes nothing about a default run except the
// manifest's lint counters.
func TestLintPreflightPasses(t *testing.T) {
	bin := buildBinary(t)
	out, err := exec.Command(bin, "-lint", "-json").Output()
	if code := exitCode(t, err); code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	// Profile mode prints the rendered tables before the manifest; the
	// manifest is the trailing JSON object.
	s := string(out)
	start := strings.Index(s, "\n{")
	if start < 0 {
		t.Fatalf("no manifest in output:\n%s", s)
	}
	var man struct {
		Options map[string]any `json:"options"`
		Results map[string]any `json:"results"`
	}
	if err := json.Unmarshal([]byte(s[start+1:]), &man); err != nil {
		t.Fatalf("manifest not JSON: %v", err)
	}
	if got, ok := man.Options["lint"].(bool); !ok || !got {
		t.Errorf("manifest options[lint] = %v, want true", man.Options["lint"])
	}
	if got, ok := man.Results["lint_errors"].(float64); !ok || got != 0 {
		t.Errorf("manifest results[lint_errors] = %v, want 0", man.Results["lint_errors"])
	}
}

// TestUsageBadSOC pins the exit-2 contract for flag values the run could
// not use as given: an unknown SOC, a -scale outside (0,1], a negative
// -checkpoint-every.
func TestUsageBadSOC(t *testing.T) {
	bin := buildBinary(t)
	for _, tc := range []struct {
		args []string
		want string // what the usage message must name
	}{
		{[]string{"-soc", "SOC9", "-lint"}, "SOC1"},
		{[]string{"-live", "-soc", "SOC1", "-scale", "7"}, "-scale"},
		{[]string{"-live", "-soc", "SOC1", "-scale", "0"}, "-scale"},
		{[]string{"-live", "-soc", "SOC1", "-checkpoint-every", "-1"}, "-checkpoint-every"},
	} {
		out, err := exec.Command(bin, tc.args...).CombinedOutput()
		if code := exitCode(t, err); code != cli.ExitUsage {
			t.Errorf("%v: exit %d, want %d\n%s", tc.args, code, cli.ExitUsage, out)
		}
		if !strings.Contains(string(out), tc.want) {
			t.Errorf("%v: usage message does not name %s:\n%s", tc.args, tc.want, out)
		}
	}
}

// TestLiveMetricsListATPGSpans checks that a live run's -metrics snapshot
// names every ATPG phase span, setup and final accounting included, so
// the phase timers account for the whole of atpg.generate.
func TestLiveMetricsListATPGSpans(t *testing.T) {
	bin := buildBinary(t)
	out, err := exec.Command(bin, "-live", "-soc", "SOC1", "-metrics").CombinedOutput()
	if code := exitCode(t, err); code != 0 {
		t.Fatalf("exit %d, want 0\n%s", code, out)
	}
	timers := map[string]bool{}
	for _, line := range strings.Split(string(out), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "timer" {
			timers[f[1]] = true
		}
	}
	for _, name := range []string{
		"atpg.generate", "atpg.setup", "atpg.phase.random", "atpg.phase.podem",
		"atpg.phase.compact", "atpg.finalize",
	} {
		if !timers[name] {
			t.Errorf("-metrics lists no %s timer:\n%s", name, out)
		}
	}
}
