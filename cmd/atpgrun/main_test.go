package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/bench89"
	"repro/internal/cli"
	"repro/internal/netlist"
)

// buildBinary compiles atpgrun once per test binary into a temp dir and
// returns its path. Exec-level tests need the real signal handling and
// exit-code paths, which in-process tests cannot exercise.
func buildBinary(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("exec test skipped in -short mode")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "atpgrun")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
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

// TestExitUsage covers flag-validation failures: -resume without -checkpoint.
func TestExitUsage(t *testing.T) {
	bin := buildBinary(t)
	out, err := exec.Command(bin, "-standin", "s713", "-resume").CombinedOutput()
	if code := exitCode(t, err); code != cli.ExitUsage {
		t.Fatalf("exit %d, want %d\n%s", code, cli.ExitUsage, out)
	}
}

// TestEarlyErrorFlushesTrace checks that a failure before ATPG even starts
// (missing netlist file) still exits 1 and flushes the trace and manifest.
func TestEarlyErrorFlushesTrace(t *testing.T) {
	bin := buildBinary(t)
	trace := filepath.Join(t.TempDir(), "trace.jsonl")
	out, err := exec.Command(bin, "-f", "/nonexistent.bench", "-trace", trace).CombinedOutput()
	if code := exitCode(t, err); code != cli.ExitRuntime {
		t.Fatalf("exit %d, want %d\n%s", code, cli.ExitRuntime, out)
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatalf("trace not written: %v", err)
	}
	if len(data) == 0 {
		t.Fatal("trace file empty: sink not flushed on early error")
	}
	if !strings.Contains(string(out), "no such file") {
		t.Errorf("error message not surfaced:\n%s", out)
	}
}

// bigNetlist writes a deterministic stand-in ten times the size of s15850
// to a temp .bench file. A full ATPG run on it takes seconds, far longer
// than the deadlines and signal delays below, so those tests do not
// depend on how fast ATPG is.
func bigNetlist(t *testing.T) string {
	t.Helper()
	prof, _ := bench89.ProfileByName("s15850")
	prof.Name = "s15850x10"
	prof.Inputs *= 10
	prof.Outputs *= 10
	prof.DFFs *= 10
	prof.Gates *= 10
	c, err := bench89.Generate(prof)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "big.bench")
	if err := os.WriteFile(path, []byte(netlist.BenchString(c)), 0o666); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestTimeoutExitsIncomplete runs a circuit large enough that a tiny
// -timeout interrupts generation; the process must exit with the
// incomplete code and report partial patterns.
func TestTimeoutExitsIncomplete(t *testing.T) {
	bin := buildBinary(t)
	out, err := exec.Command(bin, "-f", bigNetlist(t), "-timeout", "300ms").CombinedOutput()
	if code := exitCode(t, err); code != cli.ExitIncomplete {
		t.Fatalf("exit %d, want %d\n%s", code, cli.ExitIncomplete, out)
	}
	if !strings.Contains(string(out), "partial") {
		t.Errorf("partial results not reported:\n%s", out)
	}
}

// TestSIGINTExitsInterrupted sends SIGINT mid-run and expects the
// conventional 130 exit code plus a final checkpoint on disk.
func TestSIGINTExitsInterrupted(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("no SIGINT delivery on windows")
	}
	bin := buildBinary(t)
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	cmd := exec.Command(bin, "-f", bigNetlist(t), "-checkpoint", ckpt, "-checkpoint-every", "8")
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Interrupt once the main ATPG loop has written its first checkpoint:
	// the run is then provably mid-generation, with thousands of faults to
	// go.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := os.Stat(ckpt); err == nil {
			break
		}
		if time.Now().After(deadline) {
			_ = cmd.Process.Kill()
			t.Fatal("run never wrote its first checkpoint")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	if code := exitCode(t, err); code != cli.ExitInterrupted {
		t.Fatalf("exit %d, want %d", code, cli.ExitInterrupted)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("final checkpoint missing after SIGINT: %v", err)
	}
}

// TestWorkersManifestIdentical is the exec-level determinism check: -workers 1
// and -workers 8 runs must report identical result fields in their -json
// manifests and leave byte-identical checkpoint files on disk.
func TestWorkersManifestIdentical(t *testing.T) {
	bin := buildBinary(t)
	run := func(w string) (map[string]any, []byte) {
		t.Helper()
		ckpt := filepath.Join(t.TempDir(), "run.ckpt")
		out, err := exec.Command(bin,
			"-standin", "s953", "-workers", w, "-json",
			"-checkpoint", ckpt, "-checkpoint-every", "8").Output()
		if err != nil {
			t.Fatalf("-workers %s: %v", w, err)
		}
		var man struct {
			Options map[string]any `json:"options"`
			Results map[string]any `json:"results"`
		}
		if err := json.Unmarshal(out, &man); err != nil {
			t.Fatalf("-workers %s: manifest not JSON: %v", w, err)
		}
		data, err := os.ReadFile(ckpt)
		if err != nil {
			t.Fatalf("-workers %s: checkpoint missing: %v", w, err)
		}
		return man.Results, data
	}
	serialRes, serialCkpt := run("1")
	parRes, parCkpt := run("8")
	if !reflect.DeepEqual(parRes, serialRes) {
		t.Errorf("manifest results differ:\n  -workers 1: %v\n  -workers 8: %v", serialRes, parRes)
	}
	if !bytes.Equal(parCkpt, serialCkpt) {
		t.Errorf("checkpoint files differ between -workers 1 and -workers 8 (%d vs %d bytes)", len(serialCkpt), len(parCkpt))
	}
}

// TestWorkersRecordedInManifest pins the observability contract: the
// resolved worker count lands in the manifest options.
func TestWorkersRecordedInManifest(t *testing.T) {
	bin := buildBinary(t)
	out, err := exec.Command(bin, "-standin", "s713", "-workers", "3", "-json").Output()
	if err != nil {
		t.Fatal(err)
	}
	var man struct {
		Options map[string]any `json:"options"`
	}
	if err := json.Unmarshal(out, &man); err != nil {
		t.Fatal(err)
	}
	if got, ok := man.Options["workers"].(float64); !ok || got != 3 {
		t.Fatalf("manifest options[workers] = %v, want 3", man.Options["workers"])
	}
}

// TestWorkersTimeoutExitsIncomplete is the -workers=4 leg of the
// resilience suite: a timeout interrupting a parallel run must still exit
// with the incomplete code, report partial work, and leave a loadable
// checkpoint behind.
func TestWorkersTimeoutExitsIncomplete(t *testing.T) {
	bin := buildBinary(t)
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	out, err := exec.Command(bin,
		"-f", bigNetlist(t), "-workers", "4", "-timeout", "300ms",
		"-checkpoint", ckpt, "-checkpoint-every", "8").CombinedOutput()
	if code := exitCode(t, err); code != cli.ExitIncomplete {
		t.Fatalf("exit %d, want %d\n%s", code, cli.ExitIncomplete, out)
	}
	if !strings.Contains(string(out), "partial") {
		t.Errorf("partial results not reported:\n%s", out)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("checkpoint missing after parallel timeout: %v", err)
	}
}

// TestLintPreflight covers the -lint gate: a netlist with an error-level
// DRC finding must be refused before any ATPG runs, a clean one must
// proceed, and the manifest must carry the lint counts.
func TestLintPreflight(t *testing.T) {
	bin := buildBinary(t)
	out, err := exec.Command(bin,
		"-f", "../../internal/netlist/testdata/defects/cycle.bench", "-lint").CombinedOutput()
	if code := exitCode(t, err); code != cli.ExitRuntime {
		t.Fatalf("defective netlist: exit %d, want %d\n%s", code, cli.ExitRuntime, out)
	}
	s := string(out)
	if !strings.Contains(s, "NL001") || !strings.Contains(s, "refusing to run") {
		t.Errorf("preflight refusal not reported:\n%s", s)
	}
	if strings.Contains(s, "patterns:") {
		t.Errorf("ATPG ran despite lint errors:\n%s", s)
	}

	jout, err := exec.Command(bin,
		"-f", "../../internal/netlist/testdata/c17.bench", "-lint", "-json").Output()
	if err != nil {
		t.Fatalf("clean netlist rejected: %v", err)
	}
	var man struct {
		Results map[string]any `json:"results"`
	}
	if err := json.Unmarshal(jout, &man); err != nil {
		t.Fatal(err)
	}
	if got, ok := man.Results["lint_errors"].(float64); !ok || got != 0 {
		t.Errorf("manifest results[lint_errors] = %v, want 0", man.Results["lint_errors"])
	}
	if _, ok := man.Results["lint_warnings"]; !ok {
		t.Error("manifest missing lint_warnings")
	}
}

// TestLintPreflightStandin checks the circuit-level path: generated
// stand-ins have no backing file but still go through the linter (their
// generator-artifact warnings must not block the run).
func TestLintPreflightStandin(t *testing.T) {
	bin := buildBinary(t)
	out, err := exec.Command(bin, "-standin", "s713", "-lint").CombinedOutput()
	if code := exitCode(t, err); code != 0 {
		t.Fatalf("exit %d, want 0\n%s", code, out)
	}
}

// TestSatProveSettlesAborts runs a fixture under a starved backtrack limit
// (forcing aborts) with -sat-prove: the settled manifest must report zero
// aborted faults and a 100% effective coverage, bit-identically across
// repeated runs and worker counts.
func TestSatProveSettlesAborts(t *testing.T) {
	bin := buildBinary(t)
	run := func(w string) map[string]any {
		t.Helper()
		out, err := exec.Command(bin,
			"-f", "../../internal/netlist/testdata/redundant.bench",
			"-backtrack", "1", "-random", "0", "-compact=false",
			"-sat-prove", "-workers", w, "-json").Output()
		if err != nil {
			t.Fatalf("-workers %s: %v", w, err)
		}
		var man struct {
			Results map[string]any `json:"results"`
		}
		if err := json.Unmarshal(out, &man); err != nil {
			t.Fatalf("manifest not JSON: %v", err)
		}
		return man.Results
	}
	ref := run("1")
	if ref["aborted"] != float64(0) {
		t.Fatalf("settled run still has aborted faults: %v", ref)
	}
	if ref["effective_coverage"] != float64(1) {
		t.Fatalf("settled effective coverage %v, want 1", ref["effective_coverage"])
	}
	if ref["settled_aborts"] == float64(0) {
		t.Fatalf("fixture produced no aborts to settle under -backtrack 1: %v", ref)
	}
	for _, w := range []string{"1", "4"} {
		if got := run(w); !reflect.DeepEqual(got, ref) {
			t.Errorf("-workers %s settled manifest differs:\n  got  %v\n  want %v", w, got, ref)
		}
	}
}

// TestSatProveRejectsCones pins the flag validation: -sat-prove settles
// whole-circuit runs only.
func TestSatProveRejectsCones(t *testing.T) {
	bin := buildBinary(t)
	out, err := exec.Command(bin, "-standin", "s713", "-sat-prove", "-cones").CombinedOutput()
	if code := exitCode(t, err); code != cli.ExitUsage {
		t.Fatalf("exit %d, want %d\n%s", code, cli.ExitUsage, out)
	}
}
