package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
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
	"repro/internal/srv"
)

// atpgrun runs the command in-process on stdin and returns its exit code,
// its stdout, and stdout and stderr interleaved as a terminal shows them.
func atpgrun(stdin string, args ...string) (code int, stdout, all string) {
	var out, both bytes.Buffer
	code = run(args, strings.NewReader(stdin), io.MultiWriter(&out, &both), &both)
	return code, out.String(), both.String()
}

// asMain, set in its environment, makes the test binary run as atpgrun.
const asMain = "ATPGRUN_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMain) != "" {
		main()
	}
	m.Run()
}

// binary returns the test binary itself, which the processes the test
// starts run as atpgrun: a signal needs a real process.
func binary(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("exec test skipped in -short mode")
	}
	t.Setenv(asMain, "1")
	return os.Args[0]
}

// exitCode is the exit code of a finished exec.Cmd.
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

// TestExitUsage covers flag-validation failures: -resume without
// -checkpoint, and values the run could not use as given. Each exits 2
// with a message naming the flag.
func TestExitUsage(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // the flag the message must name
	}{
		{[]string{"-resume"}, "-resume"},
		{[]string{"-backtrack", "0"}, "-backtrack"},
		{[]string{"-backtrack", "-3"}, "-backtrack"},
		{[]string{"-random", "-5"}, "-random"},
		{[]string{"-random", "65537"}, "-random must be <= 65536"},
		{[]string{"-workers", "-3"}, "-workers must be >= 0"},
		{[]string{"-workers", "65"}, "-workers must be <= 64"},
		{[]string{"-checkpoint-every", "-1"}, "-checkpoint-every"},
	} {
		// The refusal comes before any work: not even the circuit
		// statistics reach stdout.
		args := append([]string{"-standin", "s713"}, tc.args...)
		code, stdout, out := atpgrun("", args...)
		if code != cli.ExitUsage {
			t.Errorf("%v: exit %d, want %d\n%s", tc.args, code, cli.ExitUsage, out)
		}
		if !strings.Contains(out, tc.want) {
			t.Errorf("%v: message does not name %s:\n%s", tc.args, tc.want, out)
		}
		if stdout != "" {
			t.Errorf("%v: refused run wrote to stdout:\n%s", tc.args, stdout)
		}
	}
}

// TestEarlyErrorFlushesTrace checks that a failure before ATPG even starts
// (missing netlist file) still exits 1 and flushes the trace and manifest.
func TestEarlyErrorFlushesTrace(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.jsonl")
	code, _, out := atpgrun("", "-f", "/nonexistent.bench", "-trace", trace)
	if code != cli.ExitRuntime {
		t.Fatalf("exit %d, want %d\n%s", code, cli.ExitRuntime, out)
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatalf("trace not written: %v", err)
	}
	if len(data) == 0 {
		t.Fatal("trace file empty: sink not flushed on early error")
	}
	if !strings.Contains(out, "no such file") {
		t.Errorf("error message not surfaced:\n%s", out)
	}
}

// bigNetlist writes a deterministic stand-in ten times the size of s15850
// to a temp .bench file. The tests below run ATPG on it with -random 0,
// so PODEM targets every fault itself: that takes seconds (~2 s on two
// CPUs), far longer than their deadlines and signal delays, so they do
// not depend on how fast ATPG is. With the random phase, the whole run
// takes ~0.3 s, as long as the deadline.
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
	code, _, out := atpgrun("", "-f", bigNetlist(t), "-random", "0", "-timeout", "300ms")
	if code != cli.ExitIncomplete {
		t.Fatalf("exit %d, want %d\n%s", code, cli.ExitIncomplete, out)
	}
	if !strings.Contains(out, "partial") {
		t.Errorf("partial results not reported:\n%s", out)
	}
}

// TestSIGINTExitsInterrupted sends SIGINT mid-run and expects the
// conventional 130 exit code plus a final checkpoint on disk.
func TestSIGINTExitsInterrupted(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("no SIGINT delivery on windows")
	}
	bin := binary(t)
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	cmd := exec.Command(bin, "-f", bigNetlist(t), "-random", "0", "-checkpoint", ckpt, "-checkpoint-every", "8")
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

// TestSatProveSignalExitsInterrupted signals atpgrun once SAT settlement
// has started on s5378, whose three aborts the prover cannot settle in
// any reasonable time: the run must stop promptly and exit 130, for
// SIGTERM as for SIGINT.
func TestSatProveSignalExitsInterrupted(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("no signal delivery on windows")
	}
	bin := binary(t)
	for name, sig := range map[string]syscall.Signal{"SIGTERM": syscall.SIGTERM, "SIGINT": syscall.SIGINT} {
		t.Run(name, func(t *testing.T) {
			trace := filepath.Join(t.TempDir(), "run.jsonl")
			cmd := exec.Command(bin, "-standin", "s5378", "-sat-prove", "-trace", trace)
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(30 * time.Second)
			for {
				if data, err := os.ReadFile(trace); err == nil && bytes.Contains(data, []byte(`"atpg.phase.settle.begin"`)) {
					break
				}
				if time.Now().After(deadline) {
					_ = cmd.Process.Kill()
					t.Fatal("run never started settlement")
				}
				time.Sleep(10 * time.Millisecond)
			}
			if err := cmd.Process.Signal(sig); err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() { done <- cmd.Wait() }()
			select {
			case err := <-done:
				if code := exitCode(t, err); code != cli.ExitInterrupted {
					t.Fatalf("exit %d, want %d", code, cli.ExitInterrupted)
				}
			case <-time.After(10 * time.Second):
				_ = cmd.Process.Kill()
				t.Fatalf("still settling 10 s after %v", sig)
			}
		})
	}
}

// TestWorkersManifestIdentical is the exec-level determinism check: -workers 1
// and -workers 8 runs must report identical result fields in their -json
// manifests and leave byte-identical checkpoint files on disk.
func TestWorkersManifestIdentical(t *testing.T) {
	run := func(w string) (map[string]any, []byte) {
		t.Helper()
		ckpt := filepath.Join(t.TempDir(), "run.ckpt")
		code, out, all := atpgrun("",
			"-standin", "s953", "-workers", w, "-json",
			"-checkpoint", ckpt, "-checkpoint-every", "8")
		if code != 0 {
			t.Fatalf("-workers %s: exit %d\n%s", w, code, all)
		}
		var man struct {
			Options map[string]any `json:"options"`
			Results map[string]any `json:"results"`
		}
		if err := json.Unmarshal([]byte(out), &man); err != nil {
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
	code, out, all := atpgrun("", "-standin", "s713", "-workers", "3", "-json")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, all)
	}
	var man struct {
		Options map[string]any `json:"options"`
	}
	if err := json.Unmarshal([]byte(out), &man); err != nil {
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
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	code, _, out := atpgrun("",
		"-f", bigNetlist(t), "-random", "0", "-workers", "4", "-timeout", "300ms",
		"-checkpoint", ckpt, "-checkpoint-every", "8")
	if code != cli.ExitIncomplete {
		t.Fatalf("exit %d, want %d\n%s", code, cli.ExitIncomplete, out)
	}
	if !strings.Contains(out, "partial") {
		t.Errorf("partial results not reported:\n%s", out)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("checkpoint missing after parallel timeout: %v", err)
	}
}

// TestBrokenNetlistRefused checks a netlist with a structural defect is
// refused by the parser, every run, before any ATPG runs.
func TestBrokenNetlistRefused(t *testing.T) {
	code, _, s := atpgrun("", "-f", "../../internal/netlist/testdata/defects/cycle.bench")
	if code != cli.ExitRuntime {
		t.Fatalf("defective netlist: exit %d, want %d\n%s", code, cli.ExitRuntime, s)
	}
	if !strings.Contains(s, "combinational cycle") || strings.Contains(s, "patterns:") {
		t.Errorf("want the parser's refusal and no ATPG:\n%s", s)
	}
}

// TestSatProveSettlesAborts runs a fixture under a starved backtrack limit
// (forcing aborts) with -sat-prove: the settled manifest must report zero
// aborted faults and a 100% effective coverage, bit-identically across
// repeated runs and worker counts.
func TestSatProveSettlesAborts(t *testing.T) {
	run := func(w string) map[string]any {
		t.Helper()
		code, out, all := atpgrun("",
			"-f", "../../internal/netlist/testdata/redundant.bench",
			"-backtrack", "1", "-random", "0", "-compact=false",
			"-sat-prove", "-workers", w, "-json")
		if code != 0 {
			t.Fatalf("-workers %s: exit %d\n%s", w, code, all)
		}
		var man struct {
			Results map[string]any `json:"results"`
		}
		if err := json.Unmarshal([]byte(out), &man); err != nil {
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
	if code, _, out := atpgrun("", "-standin", "s713", "-sat-prove", "-cones"); code != cli.ExitUsage {
		t.Fatalf("exit %d, want %d\n%s", code, cli.ExitUsage, out)
	}
}

// serve answers a POST of body to path from an in-process srv.
func serve(t *testing.T, path, body string) []byte {
	t.Helper()
	s := srv.New(srv.Config{Workers: 1})
	defer s.Drain()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST %s %s: %d %s", path, body, rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

// TestResultsMatchServedATPG holds atpgrun -json to socd: at the same
// (default) options, every count and coverage of the manifest equals the
// /v1/atpg summary's. The summary adds the pattern bits; the manifest
// adds the run's flags.
func TestResultsMatchServedATPG(t *testing.T) {
	code, out, all := atpgrun("", "-standin", "s713", "-json")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, all)
	}
	var man struct {
		Results map[string]any `json:"results"`
	}
	var sum map[string]any
	if err := json.Unmarshal([]byte(out), &man); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(serve(t, "/v1/atpg", `{"standin":"s713"}`), &sum); err != nil {
		t.Fatal(err)
	}
	for key, f := range map[string]string{
		"faults": "faults", "detected": "detected", "redundant": "redundant",
		"aborted": "aborted", "coverage": "coverage", "effective_coverage": "effective_coverage",
		"patterns": "pattern_count", "cubes": "cube_count",
	} {
		if man.Results[key] == nil || man.Results[key] != sum[f] {
			t.Errorf("%s = %v, /v1/atpg %s = %v", key, man.Results[key], f, sum[f])
		}
	}
	// A complete run: the manifest says so, the summary omits the flag.
	if man.Results["incomplete"] != false || sum["incomplete"] != nil {
		t.Errorf("incomplete: manifest %v, /v1/atpg %v", man.Results["incomplete"], sum["incomplete"])
	}
}
