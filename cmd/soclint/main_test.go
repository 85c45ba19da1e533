package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/srv"
)

// repoRoot is where the committed fixtures live relative to this package;
// running the command from there keeps the paths in golden output stable.
const repoRoot = "../.."

// soclint runs the command in-process with the repo root as working
// directory and returns its exit code and its stdout and stderr
// interleaved as a terminal shows them.
func soclint(t *testing.T, args ...string) (code int, out string) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(repoRoot); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	var both bytes.Buffer
	code = run(args, &both, &both)
	return code, both.String()
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
	code, out := soclint(t,
		"internal/netlist/testdata/defects", "cmd/soclint/testdata/defects")
	if code != cli.ExitRuntime {
		t.Fatalf("exit %d, want %d\n%s", code, cli.ExitRuntime, out)
	}
	if want := readGolden(t, "defects.golden"); out != want {
		t.Errorf("text report drifted from golden:\n--- got ---\n%s--- want ---\n%s", out, want)
	}
}

// TestDefectFixturesJSONGolden pins the -json form: one lint.diag JSONL
// event per finding with a zeroed timestamp, so output is byte-stable.
func TestDefectFixturesJSONGolden(t *testing.T) {
	code, out := soclint(t, "-json",
		"internal/netlist/testdata/defects", "cmd/soclint/testdata/defects")
	if code != cli.ExitRuntime {
		t.Fatalf("exit %d, want %d\n%s", code, cli.ExitRuntime, out)
	}
	if want := readGolden(t, "defects.json.golden"); out != want {
		t.Errorf("JSONL report drifted from golden:\n--- got ---\n%s--- want ---\n%s", out, want)
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if !strings.Contains(line, `"ts":"0001-01-01T00:00:00Z"`) {
			t.Errorf("event carries a wall-clock timestamp (nondeterministic): %s", line)
		}
	}
}

// TestCleanInputsExitZero runs the linter over the committed clean
// fixtures and real profile data; none may produce an error.
func TestCleanInputsExitZero(t *testing.T) {
	for _, path := range []string{
		"cmd/soclint/testdata/clean",
		"internal/netlist/testdata/c17.bench",
		"internal/netlist/testdata/gates.bench",
		"internal/netlist/testdata/seq4.bench",
		"internal/itc02/testdata/p34392.soc",
	} {
		code, out := soclint(t, path)
		if code != 0 {
			t.Errorf("%s: exit %d, want 0\n%s", path, code, out)
		}
	}
}

// TestWarnAsError promotes warning-only fixtures to failures: deadlogic
// and unobservable parse fine and only warn, so they pass by default and
// fail under -warn-as-error.
func TestWarnAsError(t *testing.T) {
	for _, fix := range []string{
		"internal/netlist/testdata/defects/deadlogic.bench",
		"internal/netlist/testdata/defects/unobservable.bench",
	} {
		code, out := soclint(t, fix)
		if code != 0 {
			t.Errorf("%s: exit %d without -warn-as-error, want 0\n%s", fix, code, out)
		}
		code, out = soclint(t, "-warn-as-error", fix)
		if code != cli.ExitRuntime {
			t.Errorf("%s: exit %d with -warn-as-error, want %d\n%s", fix, code, cli.ExitRuntime, out)
		}
	}
}

// TestUsageErrors covers the exit-2 contract: no arguments, and a
// directory holding nothing lintable.
func TestUsageErrors(t *testing.T) {
	code, out := soclint(t)
	if code != cli.ExitUsage {
		t.Fatalf("no args: exit %d, want %d\n%s", code, cli.ExitUsage, out)
	}
	empty := t.TempDir()
	code, out = soclint(t, empty)
	if code != cli.ExitUsage {
		t.Fatalf("empty dir: exit %d, want %d\n%s", code, cli.ExitUsage, out)
	}
	if !strings.Contains(out, "no .bench or .soc files") {
		t.Errorf("empty-dir message not surfaced:\n%s", out)
	}
}

// TestNonLintableFileRejected checks that an explicit file argument with
// the wrong extension is a runtime error, not silently ignored.
func TestNonLintableFileRejected(t *testing.T) {
	stray := filepath.Join(t.TempDir(), "notes.txt")
	if err := os.WriteFile(stray, []byte("hello"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out := soclint(t, stray)
	if code != cli.ExitRuntime {
		t.Fatalf("exit %d, want %d\n%s", code, cli.ExitRuntime, out)
	}
	if !strings.Contains(out, "not a .bench or .soc file") {
		t.Errorf("rejection message not surfaced:\n%s", out)
	}
}

// TestRulesCatalog prints the catalog and exits 0 without any inputs.
func TestRulesCatalog(t *testing.T) {
	code, out := soclint(t, "-rules")
	if code != 0 {
		t.Fatalf("exit %d, want 0\n%s", code, out)
	}
	for _, id := range []string{"NL001", "NL012", "SOC001", "SOC014"} {
		if !strings.Contains(out, id) {
			t.Errorf("catalog missing rule %s:\n%s", id, out)
		}
	}
}

// TestScoapReport asks for the hardest nets of a clean netlist.
func TestScoapReport(t *testing.T) {
	code, out := soclint(t, "-scoap", "3", "cmd/soclint/testdata/clean/good.bench")
	if code != 0 {
		t.Fatalf("exit %d, want 0\n%s", code, out)
	}
	if !strings.Contains(out, "3 hardest nets by SCOAP") {
		t.Errorf("SCOAP report missing:\n%s", out)
	}
	// G11 fans out into both output cones but sits two NANDs from
	// either output, giving c17's worst combined SCOAP difficulty.
	if !strings.Contains(out, "G11") {
		t.Errorf("expected G11 in the hardest-net report:\n%s", out)
	}
}

// TestQuietSuppressesInfo: p34392 carries only the SOC011 info note, so
// -q must reduce the report to the summary line alone.
func TestQuietSuppressesInfo(t *testing.T) {
	code, out := soclint(t, "-q", "internal/itc02/testdata/p34392.soc")
	if code != 0 {
		t.Fatalf("exit %d, want 0\n%s", code, out)
	}
	if strings.Contains(out, "SOC011") {
		t.Errorf("-q leaked an info diagnostic:\n%s", out)
	}
}

// TestCECProvesAllFixtures runs -cec over every committed .bench fixture
// that lints clean: the compiled PPSFP program must be proven equivalent
// for each, bit-identically across repeated runs (the manifest carries the
// checked/proved counts and total solver conflicts).
func TestCECProvesAllFixtures(t *testing.T) {
	run := func() string {
		t.Helper()
		code, out := soclint(t, "-json", "-cec",
			"internal/netlist/testdata/c17.bench",
			"internal/netlist/testdata/deepchain.bench",
			"internal/netlist/testdata/edges.bench",
			"internal/netlist/testdata/gates.bench",
			"internal/netlist/testdata/redundant.bench",
			"internal/netlist/testdata/seq4.bench",
			"internal/netlist/testdata/widefan.bench",
			"cmd/soclint/testdata/clean/good.bench")
		if code != 0 {
			t.Fatalf("exit %d, want 0\n%s", code, out)
		}
		return out
	}
	s := run()
	if strings.Contains(s, "CEC001") {
		t.Fatalf("a fixture failed equivalence:\n%s", s)
	}
	if !strings.Contains(s, `"cec_checked":8,"cec_proved":8,"cec_structural":8`) {
		t.Errorf("manifest does not report all 8 fixtures proved:\n%s", s)
	}
	if again := run(); again != s {
		t.Errorf("repeated -cec runs are not byte-identical:\n--- first ---\n%s--- second ---\n%s", s, again)
	}
}

// TestSatRulesFindings pins the SAT-backed rules on the redundant fixture:
// it contains a provably-constant net and provably-untestable faults, all
// warnings (exit stays 0), counted in the manifest, byte-identically
// across runs.
func TestSatRulesFindings(t *testing.T) {
	run := func() string {
		t.Helper()
		code, out := soclint(t, "-json", "-sat", "internal/netlist/testdata/redundant.bench")
		if code != 0 {
			t.Fatalf("exit %d, want 0\n%s", code, out)
		}
		return out
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
	code, out := soclint(t, "-json", "-sat", "internal/netlist/testdata/c17.bench")
	if code != 0 {
		t.Fatalf("exit %d, want 0\n%s", code, out)
	}
	if strings.Contains(out, "NL013") && !strings.Contains(out, `"nl013":0`) {
		t.Errorf("unexpected NL013 on c17:\n%s", out)
	}
	if !strings.Contains(out, `"nl013":0,"nl014":0`) {
		t.Errorf("manifest should count zero SAT findings on c17:\n%s", out)
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

// diag is one finding as both soclint -json and /v1/lint report it, less
// the file name: the request has none of its own.
type diag struct {
	Rule     string `json:"rule"`
	Severity string `json:"severity"`
	Line     int    `json:"line"`
	Subject  string `json:"subject"`
	Msg      string `json:"msg"`
}

// TestDiagsMatchServedLint holds soclint to socd: on every defect
// fixture, the lint.diag events of soclint -json are the diags of the
// /v1/lint response for the same source, in the same order.
func TestDiagsMatchServedLint(t *testing.T) {
	fixtures, err := filepath.Glob(filepath.Join(repoRoot, "internal/netlist/testdata/defects/*.bench"))
	if err != nil || len(fixtures) == 0 {
		t.Fatalf("no fixtures: %v", err)
	}
	socs, err := filepath.Glob(filepath.Join(repoRoot, "cmd/soclint/testdata/defects/*.soc"))
	if err != nil || len(socs) == 0 {
		t.Fatalf("no .soc fixtures: %v", err)
	}
	fixtures = append(fixtures, socs...)
	for _, path := range fixtures {
		rel, _ := filepath.Rel(repoRoot, path)
		_, out := soclint(t, "-json", rel)
		var cli []diag
		sc := bufio.NewScanner(strings.NewReader(out))
		for sc.Scan() {
			var ev struct {
				Event string `json:"event"`
				diag
			}
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				t.Fatalf("%s: %v in %q", rel, err, sc.Text())
			}
			if ev.Event == "lint.diag" {
				cli = append(cli, ev.diag)
			}
		}
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		kind := strings.TrimPrefix(filepath.Ext(path), ".")
		b, _ := json.Marshal(map[string]string{kind: string(src)})
		var art struct {
			Diags []diag `json:"diags"`
		}
		if err := json.Unmarshal(serve(t, "/v1/lint", string(b)), &art); err != nil {
			t.Fatal(err)
		}
		if len(cli) == 0 || !reflect.DeepEqual(cli, art.Diags) {
			t.Errorf("%s: soclint and /v1/lint disagree:\n  soclint:  %+v\n  /v1/lint: %+v", rel, cli, art.Diags)
		}
	}
}
