package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/srv"
)

// tdvcalc runs the command in-process on stdin and returns its exit code,
// its stdout, and stdout and stderr interleaved as a terminal shows them.
func tdvcalc(stdin string, args ...string) (code int, stdout, all string) {
	var out, both bytes.Buffer
	code = run(args, strings.NewReader(stdin), io.MultiWriter(&out, &both), &both)
	return code, out.String(), both.String()
}

// TestJSONManifest checks -json replaces the human report with a run
// manifest carrying the TDV results.
func TestJSONManifest(t *testing.T) {
	code, out, all := tdvcalc("", "-builtin", "p34392", "-json")
	if code != 0 {
		t.Fatalf("tdvcalc -json: exit %d\n%s", code, all)
	}
	var man struct {
		Tool    string         `json:"tool"`
		Results map[string]any `json:"results"`
	}
	if err := json.Unmarshal([]byte(out), &man); err != nil {
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

// refused checks the profile src exits 1 with want in its text, read from
// a file and from stdin.
func refused(t *testing.T, src, want string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bad.soc")
	if err := os.WriteFile(path, []byte(src), 0o666); err != nil {
		t.Fatal(err)
	}
	for _, run := range [][]string{{"", "-f", path}, {src, "-f", "-"}} {
		code, _, out := tdvcalc(run[0], run[1:]...)
		if code != cli.ExitRuntime || !strings.Contains(out, want) {
			t.Errorf("%v on %q: exit %d, want %d with %q\n%s", run[1:], src, code, cli.ExitRuntime, want, out)
		}
	}
}

// TestLintRefusesBrokenSOC checks a malformed line, which the -lint gate
// once caught before the parser, is refused with exit 1 by every run.
func TestLintRefusesBrokenSOC(t *testing.T) {
	refused(t, "soc broken\nmodule\n", "soc line 2: module needs a name")
}

// TestLintRefusesNamelessSOC checks a profile without a 'soc <name>' line,
// which the -lint gate once caught, is refused with exit 1 by every run.
func TestLintRefusesNamelessSOC(t *testing.T) {
	refused(t, "module A i 1 o 1 t 1\ntop A\n", "missing 'soc <name>' directive")
}

// TestBrokenSOCRefused checks profiles core.SOC.Validate or the parser
// refuses exit 1 with their text: declared scan chains that do not sum to
// the scan cells, and a bad value ahead of a duplicate module, where the
// first defect is named (soclint reports both).
func TestBrokenSOCRefused(t *testing.T) {
	refused(t, "soc x\ntmono 30\nmodule A s 20 sc 5,5 t 30\ntop A\n", "module A declares scan chains summing to 10 but s=20")
	refused(t, "soc two\nmodule A t nope\nmodule A t 1\ntop A\n", `soc line 2: bad value "nope" for "t"`)
}

// TestLintPassesBuiltin checks a clean builtin, which once had to pass the
// -lint gate, prints the human report.
func TestLintPassesBuiltin(t *testing.T) {
	code, out, all := tdvcalc("", "-builtin", "d695")
	if code != 0 {
		t.Fatalf("tdvcalc: exit %d\n%s", code, all)
	}
	if !strings.Contains(out, "TDV_mono_opt") {
		t.Errorf("report missing:\n%s", out)
	}
}

// TestTraceFlushed checks -trace writes a JSONL trace ending in the
// manifest event, even for this computation-light command.
func TestTraceFlushed(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.jsonl")
	if code, _, out := tdvcalc("", "-builtin", "d695", "-trace", trace); code != 0 {
		t.Fatalf("tdvcalc -trace: exit %d\n%s", code, out)
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
	if code, _, out := tdvcalc(""); code != cli.ExitUsage {
		t.Fatalf("exit %d, want %d\n%s", code, cli.ExitUsage, out)
	}
	code, ex, all := tdvcalc("", "-example")
	if code != 0 || !strings.Contains(ex, "soc ") {
		t.Fatalf("-example: exit %d\n%s", code, all)
	}
}

// TestTMonoBelowTMaxRefused checks a T_mono below the largest module
// pattern count (Eq. 2's precondition) is a runtime error, not a panic.
func TestTMonoBelowTMaxRefused(t *testing.T) {
	code, _, out := tdvcalc("", "-builtin", "d695", "-tmono", "1")
	if code != cli.ExitRuntime {
		t.Fatalf("exit %d, want %d\n%s", code, cli.ExitRuntime, out)
	}
	if !strings.Contains(out, "violating Eq. 2") || strings.Contains(out, "panic") {
		t.Errorf("want the Eq. 2 refusal, not a panic:\n%s", out)
	}
}

// TestOverflowRefused checks a profile whose TDV arithmetic leaves int64
// (one core at S = 2·10⁹, T = 3·10⁹) is a runtime error naming the module
// and the equation, not a wrapped, negative volume.
func TestOverflowRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "big.soc")
	src := "soc big\nmodule Top t 1 children A\nmodule A s 2000000000 t 3000000000\ntop Top\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, out := tdvcalc("", "-f", path)
	if code != cli.ExitRuntime {
		t.Fatalf("exit %d, want %d\n%s", code, cli.ExitRuntime, out)
	}
	if want := "module A: Eq. 4 TDV_modular overflows int64"; !strings.Contains(out, want) {
		t.Errorf("want %q:\n%s", want, out)
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

// inlineSOC is a small profile with a measured T_mono, so the Eq. 1
// results (tdv_mono_act and the ratios) are compared too.
const inlineSOC = "soc tiny\ntmono 60\nmodule Top i 4 o 4 t 10 children A,B\nmodule A i 2 o 2 s 20 t 30\nmodule B i 3 o 1 s 10 t 25\ntop Top\n"

// TestResultsMatchServedTDV holds tdvcalc -json to socd: every manifest
// result equals the /v1/tdv report field of the same quantity. The two
// name them differently (snake_case against the Go field names of
// core.Report); the table below is the mapping.
func TestResultsMatchServedTDV(t *testing.T) {
	field := map[string]string{
		"modules": "NumModules", "cores": "NumCores", "t_max": "TMax",
		"norm_stdev": "NormStdev", "tdv_modular": "TDVModular",
		"tdv_mono_opt": "TDVMonoOpt", "penalty": "Penalty", "benefit": "Benefit",
		"reduction_vs_opt": "ReductionVsOpt", "tdv_mono_act": "TDVMonoAct",
		"ratio_vs_actual": "RatioVsActual", "pessimism_factor": "PessimismFactor",
	}
	for _, tc := range []struct {
		args        []string
		stdin, body string
	}{
		{args: []string{"-builtin", "d695"}, body: `{"builtin":"d695"}`},
		{args: []string{"-builtin", "p34392"}, body: `{"builtin":"p34392"}`},
		{args: []string{"-f", "-"}, stdin: inlineSOC, body: `{"soc":` + quote(inlineSOC) + `}`},
	} {
		code, out, all := tdvcalc(tc.stdin, append(tc.args, "-json")...)
		if code != 0 {
			t.Fatalf("%v: exit %d\n%s", tc.args, code, all)
		}
		var man struct {
			Results map[string]any `json:"results"`
		}
		var rep map[string]any
		if err := json.Unmarshal([]byte(out), &man); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(serve(t, "/v1/tdv", tc.body), &rep); err != nil {
			t.Fatal(err)
		}
		if len(man.Results) < 9 {
			t.Fatalf("%v: only %d results: %v", tc.args, len(man.Results), man.Results)
		}
		for key, v := range man.Results {
			if f, ok := field[key]; !ok {
				t.Errorf("%v: result %q has no /v1/tdv counterpart", tc.args, key)
			} else if rep[f] != v {
				t.Errorf("%v: %s = %v, /v1/tdv %s = %v", tc.args, key, v, f, rep[f])
			}
		}
	}
}

func quote(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}
