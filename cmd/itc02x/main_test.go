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

// The exec-level tests share one itc02x binary: buildBinary compiles it on
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

// buildBinary returns the path of the itc02x binary, compiling it once per
// test binary. Exec-level tests need the real process: signal handling,
// exit codes and flushed output only exist there.
func buildBinary(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("exec test skipped in -short mode")
	}
	buildOnce.Do(func() {
		if buildDir, buildErr = os.MkdirTemp("", "itc02x-test-"); buildErr != nil {
			return
		}
		bin := filepath.Join(buildDir, "itc02x")
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

// TestJSONManifest checks -json on the single-SOC mode yields a manifest
// with the benchmark's TDV results instead of the table.
func TestJSONManifest(t *testing.T) {
	bin := buildBinary(t)
	out, err := exec.Command(bin, "-soc", "d695", "-json").Output()
	if err != nil {
		t.Fatalf("itc02x -json: %v", err)
	}
	var man struct {
		Tool    string         `json:"tool"`
		Options map[string]any `json:"options"`
		Results map[string]any `json:"results"`
	}
	if err := json.Unmarshal(out, &man); err != nil {
		t.Fatalf("stdout is not a JSON manifest: %v\n%s", err, out)
	}
	if man.Tool != "itc02x" {
		t.Errorf("tool = %q", man.Tool)
	}
	if man.Options["soc"] != "d695" {
		t.Errorf("options.soc = %v", man.Options["soc"])
	}
	for _, key := range []string{"tdv_modular", "tdv_mono_opt", "benefit"} {
		if _, ok := man.Results[key]; !ok {
			t.Errorf("manifest missing result %q", key)
		}
	}
}

// TestLintGatePasses checks -lint preflights all ten benchmarks cleanly
// and the tables still render.
func TestLintGatePasses(t *testing.T) {
	bin := buildBinary(t)
	out, err := exec.Command(bin, "-lint").Output()
	if err != nil {
		t.Fatalf("itc02x -lint: %v", err)
	}
	if !strings.Contains(string(out), "Table 4") {
		t.Errorf("tables missing after lint gate:\n%s", out)
	}
}

// TestTraceFlushed checks -trace writes a JSONL trace ending in the
// manifest event.
func TestTraceFlushed(t *testing.T) {
	bin := buildBinary(t)
	trace := filepath.Join(t.TempDir(), "trace.jsonl")
	if out, err := exec.Command(bin, "-soc", "d695", "-trace", trace).CombinedOutput(); err != nil {
		t.Fatalf("itc02x -trace: %v\n%s", err, out)
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatalf("trace not written: %v", err)
	}
	if !strings.Contains(string(data), `"manifest"`) {
		t.Errorf("trace missing manifest event:\n%s", data)
	}
}

// TestUsage checks stray arguments exit 2 and -emit still dumps a SOC.
func TestUsage(t *testing.T) {
	bin := buildBinary(t)
	out, err := exec.Command(bin, "stray").CombinedOutput()
	if code := exitCode(t, err); code != cli.ExitUsage {
		t.Fatalf("exit %d, want %d\n%s", code, cli.ExitUsage, out)
	}
	ex, err := exec.Command(bin, "-emit", "p34392").Output()
	if err != nil || !strings.Contains(string(ex), "soc p34392") {
		t.Fatalf("-emit: %v\n%s", err, ex)
	}
}
