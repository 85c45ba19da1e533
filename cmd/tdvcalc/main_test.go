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

// The exec-level tests share one tdvcalc binary: buildBinary compiles it on
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

// buildBinary returns the path of the tdvcalc binary, compiling it once per
// test binary. Exec-level tests need the real process: signal handling,
// exit codes and flushed output only exist there.
func buildBinary(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("exec test skipped in -short mode")
	}
	buildOnce.Do(func() {
		if buildDir, buildErr = os.MkdirTemp("", "tdvcalc-test-"); buildErr != nil {
			return
		}
		bin := filepath.Join(buildDir, "tdvcalc")
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

// TestJSONManifest checks -json replaces the human report with a run
// manifest carrying the TDV results.
func TestJSONManifest(t *testing.T) {
	bin := buildBinary(t)
	out, err := exec.Command(bin, "-builtin", "p34392", "-json").Output()
	if err != nil {
		t.Fatalf("tdvcalc -json: %v", err)
	}
	var man struct {
		Tool    string         `json:"tool"`
		Results map[string]any `json:"results"`
	}
	if err := json.Unmarshal(out, &man); err != nil {
		t.Fatalf("stdout is not a JSON manifest: %v\n%s", err, out)
	}
	if man.Tool != "tdvcalc" {
		t.Errorf("tool = %q", man.Tool)
	}
	for _, key := range []string{"tdv_modular", "tdv_mono_opt", "penalty", "benefit"} {
		if _, ok := man.Results[key]; !ok {
			t.Errorf("manifest missing result %q", key)
		}
	}
}

// TestLintRefusesBrokenSOC checks -lint preflights the source and blocks
// the run on errors with exit 1.
func TestLintRefusesBrokenSOC(t *testing.T) {
	bin := buildBinary(t)
	path := filepath.Join(t.TempDir(), "bad.soc")
	if err := os.WriteFile(path, []byte("soc broken\nmodule\n"), 0o666); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin, "-f", path, "-lint").CombinedOutput()
	if code := exitCode(t, err); code != cli.ExitRuntime {
		t.Fatalf("exit %d, want %d\n%s", code, cli.ExitRuntime, out)
	}
	if !strings.Contains(string(out), "refusing to run") {
		t.Errorf("missing refusal message:\n%s", out)
	}
}

// TestLintPassesBuiltin checks a clean builtin passes the -lint gate and
// still produces the report.
func TestLintPassesBuiltin(t *testing.T) {
	bin := buildBinary(t)
	out, err := exec.Command(bin, "-builtin", "d695", "-lint").Output()
	if err != nil {
		t.Fatalf("tdvcalc -lint: %v", err)
	}
	if !strings.Contains(string(out), "TDV_mono_opt") {
		t.Errorf("report missing after lint gate:\n%s", out)
	}
}

// TestTraceFlushed checks -trace writes a JSONL trace ending in the
// manifest event, even for this computation-light command.
func TestTraceFlushed(t *testing.T) {
	bin := buildBinary(t)
	trace := filepath.Join(t.TempDir(), "trace.jsonl")
	if out, err := exec.Command(bin, "-builtin", "d695", "-trace", trace).CombinedOutput(); err != nil {
		t.Fatalf("tdvcalc -trace: %v\n%s", err, out)
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatalf("trace not written: %v", err)
	}
	if !strings.Contains(string(data), `"manifest"`) {
		t.Errorf("trace missing manifest event:\n%s", data)
	}
}

// TestUsage checks the no-input usage error and that -example still works
// without any input flags.
func TestUsage(t *testing.T) {
	bin := buildBinary(t)
	out, err := exec.Command(bin).CombinedOutput()
	if code := exitCode(t, err); code != cli.ExitUsage {
		t.Fatalf("exit %d, want %d\n%s", code, cli.ExitUsage, out)
	}
	ex, err := exec.Command(bin, "-example").Output()
	if err != nil || !strings.Contains(string(ex), "soc ") {
		t.Fatalf("-example: %v\n%s", err, ex)
	}
}

// TestLintStdinReportsEveryFinding checks -lint -f - lints the stdin bytes
// as source: both defects are reported, not just the parser's first.
func TestLintStdinReportsEveryFinding(t *testing.T) {
	bin := buildBinary(t)
	cmd := exec.Command(bin, "-lint", "-f", "-")
	cmd.Stdin = strings.NewReader("soc two\nmodule A t nope\nmodule A t 1\ntop A\n")
	out, err := cmd.CombinedOutput()
	if code := exitCode(t, err); code != cli.ExitRuntime {
		t.Fatalf("exit %d, want %d\n%s", code, cli.ExitRuntime, out)
	}
	for _, want := range []string{
		`stdin:2: error: SOC001: bad value "nope" for "t"`,
		`stdin:3: error: SOC002: duplicate module "A" (first defined at line 2)`,
		"stdin failed lint with 2 error(s); refusing to run",
	} {
		if !strings.Contains(string(out), want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

// TestLintRefusesNamelessSOC checks a profile without a 'soc <name>' line
// is refused at the lint gate, before the parser sees it.
func TestLintRefusesNamelessSOC(t *testing.T) {
	bin := buildBinary(t)
	path := filepath.Join(t.TempDir(), "nameless.soc")
	if err := os.WriteFile(path, []byte("module A i 1 o 1 t 1\ntop A\n"), 0o666); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin, "-f", path, "-lint").CombinedOutput()
	if code := exitCode(t, err); code != cli.ExitRuntime {
		t.Fatalf("exit %d, want %d\n%s", code, cli.ExitRuntime, out)
	}
	for _, want := range []string{"SOC001: missing 'soc <name>' directive", "refusing to run"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

// TestTMonoBelowTMaxRefused checks a T_mono below the largest module
// pattern count (Eq. 2's precondition) is a runtime error, not a panic.
func TestTMonoBelowTMaxRefused(t *testing.T) {
	bin := buildBinary(t)
	out, err := exec.Command(bin, "-builtin", "d695", "-tmono", "1").CombinedOutput()
	if code := exitCode(t, err); code != cli.ExitRuntime {
		t.Fatalf("exit %d, want %d\n%s", code, cli.ExitRuntime, out)
	}
	if !strings.Contains(string(out), "violating Eq. 2") || strings.Contains(string(out), "panic") {
		t.Errorf("want the Eq. 2 refusal, not a panic:\n%s", out)
	}
}

// TestOverflowRefused checks a profile whose TDV arithmetic leaves int64
// (one core at S = 2·10⁹, T = 3·10⁹) is a runtime error naming the module
// and the equation, not a wrapped, negative volume.
func TestOverflowRefused(t *testing.T) {
	bin := buildBinary(t)
	path := filepath.Join(t.TempDir(), "big.soc")
	src := "soc big\nmodule Top t 1 children A\nmodule A s 2000000000 t 3000000000\ntop Top\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin, "-f", path).CombinedOutput()
	if code := exitCode(t, err); code != cli.ExitRuntime {
		t.Fatalf("exit %d, want %d\n%s", code, cli.ExitRuntime, out)
	}
	if want := "module A: Eq. 4 TDV_modular overflows int64"; !strings.Contains(string(out), want) {
		t.Errorf("want %q:\n%s", want, out)
	}
}
