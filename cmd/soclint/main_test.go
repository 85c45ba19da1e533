package main

import (
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

// The exec-level tests share one soclint binary: buildBinary compiles it on
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

// buildBinary returns the path of the soclint binary, compiling it once per
// test binary. Exec-level tests need the real process: signal handling,
// exit codes and flushed output only exist there.
func buildBinary(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("exec test skipped in -short mode")
	}
	buildOnce.Do(func() {
		if buildDir, buildErr = os.MkdirTemp("", "soclint-test-"); buildErr != nil {
			return
		}
		bin := filepath.Join(buildDir, "soclint")
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

// repoRoot is where the committed fixtures live relative to this package;
// running the binary from there keeps the paths in golden output stable.
const repoRoot = "../.."

// runAtRoot executes the binary with the repo root as working directory.
func runAtRoot(bin string, args ...string) ([]byte, error) {
	cmd := exec.Command(bin, args...)
	cmd.Dir = repoRoot
	return cmd.CombinedOutput()
}

func readGolden(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestDefectFixturesGolden pins the full text report over every committed
// defect fixture: each seeded defect must be detected under its expected
// rule ID, at its expected line, with a stable message. A diff here means
// either a rule regressed or its output contract changed.
func TestDefectFixturesGolden(t *testing.T) {
	bin := buildBinary(t)
	out, err := runAtRoot(bin,
		"internal/netlist/testdata/defects", "cmd/soclint/testdata/defects")
	if code := exitCode(t, err); code != cli.ExitRuntime {
		t.Fatalf("exit %d, want %d\n%s", code, cli.ExitRuntime, out)
	}
	if want := readGolden(t, "defects.golden"); string(out) != want {
		t.Errorf("text report drifted from golden:\n--- got ---\n%s--- want ---\n%s", out, want)
	}
}

// TestDefectFixturesJSONGolden pins the -json form: one lint.diag JSONL
// event per finding with a zeroed timestamp, so output is byte-stable.
func TestDefectFixturesJSONGolden(t *testing.T) {
	bin := buildBinary(t)
	out, err := runAtRoot(bin, "-json",
		"internal/netlist/testdata/defects", "cmd/soclint/testdata/defects")
	if code := exitCode(t, err); code != cli.ExitRuntime {
		t.Fatalf("exit %d, want %d\n%s", code, cli.ExitRuntime, out)
	}
	if want := readGolden(t, "defects.json.golden"); string(out) != want {
		t.Errorf("JSONL report drifted from golden:\n--- got ---\n%s--- want ---\n%s", out, want)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if !strings.Contains(line, `"ts":"0001-01-01T00:00:00Z"`) {
			t.Errorf("event carries a wall-clock timestamp (nondeterministic): %s", line)
		}
	}
}

// TestCleanInputsExitZero runs the linter over the committed clean
// fixtures and real profile data; none may produce an error.
func TestCleanInputsExitZero(t *testing.T) {
	bin := buildBinary(t)
	for _, path := range []string{
		"cmd/soclint/testdata/clean",
		"internal/netlist/testdata/c17.bench",
		"internal/netlist/testdata/gates.bench",
		"internal/netlist/testdata/seq4.bench",
		"internal/itc02/testdata/p34392.soc",
	} {
		out, err := runAtRoot(bin, path)
		if code := exitCode(t, err); code != 0 {
			t.Errorf("%s: exit %d, want 0\n%s", path, code, out)
		}
	}
}

// TestWarnAsError promotes warning-only fixtures to failures: deadlogic
// and unobservable parse fine and only warn, so they pass by default and
// fail under -warn-as-error.
func TestWarnAsError(t *testing.T) {
	bin := buildBinary(t)
	for _, fix := range []string{
		"internal/netlist/testdata/defects/deadlogic.bench",
		"internal/netlist/testdata/defects/unobservable.bench",
	} {
		out, err := runAtRoot(bin, fix)
		if code := exitCode(t, err); code != 0 {
			t.Errorf("%s: exit %d without -warn-as-error, want 0\n%s", fix, code, out)
		}
		out, err = runAtRoot(bin, "-warn-as-error", fix)
		if code := exitCode(t, err); code != cli.ExitRuntime {
			t.Errorf("%s: exit %d with -warn-as-error, want %d\n%s", fix, code, cli.ExitRuntime, out)
		}
	}
}

// TestUsageErrors covers the exit-2 contract: no arguments, and a
// directory holding nothing lintable.
func TestUsageErrors(t *testing.T) {
	bin := buildBinary(t)
	out, err := exec.Command(bin).CombinedOutput()
	if code := exitCode(t, err); code != cli.ExitUsage {
		t.Fatalf("no args: exit %d, want %d\n%s", code, cli.ExitUsage, out)
	}
	empty := t.TempDir()
	out, err = exec.Command(bin, empty).CombinedOutput()
	if code := exitCode(t, err); code != cli.ExitUsage {
		t.Fatalf("empty dir: exit %d, want %d\n%s", code, cli.ExitUsage, out)
	}
	if !strings.Contains(string(out), "no .bench or .soc files") {
		t.Errorf("empty-dir message not surfaced:\n%s", out)
	}
}

// TestNonLintableFileRejected checks that an explicit file argument with
// the wrong extension is a runtime error, not silently ignored.
func TestNonLintableFileRejected(t *testing.T) {
	bin := buildBinary(t)
	stray := filepath.Join(t.TempDir(), "notes.txt")
	if err := os.WriteFile(stray, []byte("hello"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin, stray).CombinedOutput()
	if code := exitCode(t, err); code != cli.ExitRuntime {
		t.Fatalf("exit %d, want %d\n%s", code, cli.ExitRuntime, out)
	}
	if !strings.Contains(string(out), "not a .bench or .soc file") {
		t.Errorf("rejection message not surfaced:\n%s", out)
	}
}

// TestRulesCatalog prints the catalog and exits 0 without any inputs.
func TestRulesCatalog(t *testing.T) {
	bin := buildBinary(t)
	out, err := exec.Command(bin, "-rules").CombinedOutput()
	if code := exitCode(t, err); code != 0 {
		t.Fatalf("exit %d, want 0\n%s", code, out)
	}
	for _, id := range []string{"NL001", "NL012", "SOC001", "SOC013"} {
		if !strings.Contains(string(out), id) {
			t.Errorf("catalog missing rule %s:\n%s", id, out)
		}
	}
}

// TestScoapReport asks for the hardest nets of a clean netlist.
func TestScoapReport(t *testing.T) {
	bin := buildBinary(t)
	out, err := runAtRoot(bin, "-scoap", "3", "cmd/soclint/testdata/clean/good.bench")
	if code := exitCode(t, err); code != 0 {
		t.Fatalf("exit %d, want 0\n%s", code, out)
	}
	if !strings.Contains(string(out), "3 hardest nets by SCOAP") {
		t.Errorf("SCOAP report missing:\n%s", out)
	}
	// G11 fans out into both output cones but sits two NANDs from
	// either output, giving c17's worst combined SCOAP difficulty.
	if !strings.Contains(string(out), "G11") {
		t.Errorf("expected G11 in the hardest-net report:\n%s", out)
	}
}

// TestQuietSuppressesInfo: p34392 carries only the SOC011 info note, so
// -q must reduce the report to the summary line alone.
func TestQuietSuppressesInfo(t *testing.T) {
	bin := buildBinary(t)
	out, err := runAtRoot(bin, "-q", "internal/itc02/testdata/p34392.soc")
	if code := exitCode(t, err); code != 0 {
		t.Fatalf("exit %d, want 0\n%s", code, out)
	}
	if strings.Contains(string(out), "SOC011") {
		t.Errorf("-q leaked an info diagnostic:\n%s", out)
	}
}

// TestCECProvesAllFixtures runs -cec over every committed .bench fixture
// that lints clean: the compiled PPSFP program must be proven equivalent
// for each, bit-identically across repeated runs (the manifest carries the
// checked/proved counts and total solver conflicts).
func TestCECProvesAllFixtures(t *testing.T) {
	bin := buildBinary(t)
	run := func() []byte {
		t.Helper()
		out, err := runAtRoot(bin, "-json", "-cec",
			"internal/netlist/testdata/c17.bench",
			"internal/netlist/testdata/deepchain.bench",
			"internal/netlist/testdata/edges.bench",
			"internal/netlist/testdata/gates.bench",
			"internal/netlist/testdata/redundant.bench",
			"internal/netlist/testdata/seq4.bench",
			"internal/netlist/testdata/widefan.bench",
			"cmd/soclint/testdata/clean/good.bench")
		if code := exitCode(t, err); code != 0 {
			t.Fatalf("exit %d, want 0\n%s", code, out)
		}
		return out
	}
	out := run()
	s := string(out)
	if strings.Contains(s, "CEC001") {
		t.Fatalf("a fixture failed equivalence:\n%s", s)
	}
	if !strings.Contains(s, `"cec_checked":8,"cec_proved":8,"cec_structural":8`) {
		t.Errorf("manifest does not report all 8 fixtures proved:\n%s", s)
	}
	if again := run(); string(again) != s {
		t.Errorf("repeated -cec runs are not byte-identical:\n--- first ---\n%s--- second ---\n%s", s, again)
	}
}

// TestSatRulesFindings pins the SAT-backed rules on the redundant fixture:
// it contains a provably-constant net and provably-untestable faults, all
// warnings (exit stays 0), counted in the manifest, byte-identically
// across runs.
func TestSatRulesFindings(t *testing.T) {
	bin := buildBinary(t)
	run := func() string {
		t.Helper()
		out, err := runAtRoot(bin, "-json", "-sat", "internal/netlist/testdata/redundant.bench")
		if code := exitCode(t, err); code != 0 {
			t.Fatalf("exit %d, want 0\n%s", code, out)
		}
		return string(out)
	}
	out := run()
	if !strings.Contains(out, `"rule":"NL013"`) {
		t.Errorf("no NL013 finding on the redundant fixture:\n%s", out)
	}
	if !strings.Contains(out, `"rule":"NL014"`) {
		t.Errorf("no NL014 finding on the redundant fixture:\n%s", out)
	}
	if !strings.Contains(out, `"nl013":1,"nl014":10`) {
		t.Errorf("manifest SAT counts drifted:\n%s", out)
	}
	if again := run(); again != out {
		t.Errorf("repeated -sat runs are not byte-identical")
	}
}

// TestSatRulesCleanFixture: a fixture with no redundancy produces no SAT
// findings and zero counts.
func TestSatRulesCleanFixture(t *testing.T) {
	bin := buildBinary(t)
	out, err := runAtRoot(bin, "-json", "-sat", "internal/netlist/testdata/c17.bench")
	if code := exitCode(t, err); code != 0 {
		t.Fatalf("exit %d, want 0\n%s", code, out)
	}
	if strings.Contains(string(out), "NL013") && !strings.Contains(string(out), `"nl013":0`) {
		t.Errorf("unexpected NL013 on c17:\n%s", out)
	}
	if !strings.Contains(string(out), `"nl013":0,"nl014":0`) {
		t.Errorf("manifest should count zero SAT findings on c17:\n%s", out)
	}
}
