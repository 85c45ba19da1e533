package main

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"repro/internal/cli"
)

// socx runs the command in-process and returns its exit code, its
// stdout, and stdout and stderr interleaved as a terminal shows them.
func socx(args ...string) (code int, stdout, all string) {
	var out, both bytes.Buffer
	code = run(args, io.MultiWriter(&out, &both), &both)
	return code, out.String(), both.String()
}

// TestLintPreflightPasses: the committed SOC1/SOC2 profiles must clear
// the linter, so -lint changes nothing about a default run except the
// manifest's lint counters.
func TestLintPreflightPasses(t *testing.T) {
	code, s, all := socx("-lint", "-json")
	if code != 0 {
		t.Fatalf("exit %d, want 0\n%s", code, all)
	}
	// -json prints the manifest instead of the tables: stdout is one JSON
	// object and nothing else.
	var man struct {
		Options map[string]any `json:"options"`
		Results map[string]any `json:"results"`
	}
	if err := json.Unmarshal([]byte(s), &man); err != nil {
		t.Fatalf("stdout is not one JSON manifest: %v\n%s", err, s)
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
	for _, tc := range []struct {
		args []string
		want string // what the usage message must name
	}{
		{[]string{"-soc", "SOC9", "-lint"}, "SOC1"},
		{[]string{"-live", "-soc", "SOC1", "-scale", "7"}, "-scale"},
		{[]string{"-live", "-soc", "SOC1", "-scale", "0"}, "-scale"},
		{[]string{"-live", "-soc", "SOC1", "-checkpoint-every", "-1"}, "-checkpoint-every"},
		{[]string{"-live", "-soc", "SOC1", "-workers", "-3"}, "-workers must be >= 0"},
		{[]string{"-live", "-soc", "SOC1", "-workers", "65"}, "-workers must be <= 64"},
	} {
		// The refusal comes before any work: nothing reaches stdout.
		code, stdout, out := socx(tc.args...)
		if code != cli.ExitUsage {
			t.Errorf("%v: exit %d, want %d\n%s", tc.args, code, cli.ExitUsage, out)
		}
		if !strings.Contains(out, tc.want) {
			t.Errorf("%v: usage message does not name %s:\n%s", tc.args, tc.want, out)
		}
		if stdout != "" {
			t.Errorf("%v: refused run wrote to stdout:\n%s", tc.args, stdout)
		}
	}
}

// TestLiveMetricsListATPGSpans checks that a live run's -metrics snapshot
// names every ATPG phase span, setup and final accounting included, so
// the phase timers account for the whole of atpg.generate.
func TestLiveMetricsListATPGSpans(t *testing.T) {
	code, _, out := socx("-live", "-soc", "SOC1", "-metrics")
	if code != 0 {
		t.Fatalf("exit %d, want 0\n%s", code, out)
	}
	timers := map[string]bool{}
	for _, line := range strings.Split(out, "\n") {
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
