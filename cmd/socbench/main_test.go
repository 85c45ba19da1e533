package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

var (
	buildOnce sync.Once
	binPath   string
	buildErr  error
)

// socbench builds the command once per test binary.
func socbench(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "socbench-test-")
		if err != nil {
			buildErr = err
			return
		}
		binPath = filepath.Join(dir, "socbench")
		out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput()
		if err != nil {
			buildErr = errors.New(string(out))
		}
	})
	if buildErr != nil {
		t.Fatalf("build: %v", buildErr)
	}
	return binPath
}

// benchmarkFile is the part of the root BENCHMARK.json the tests check.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// runResult is the schema of the result line.
type runResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runBench runs socbench in a fresh directory and returns its exit code,
// standard output and standard error.
func runBench(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	golden, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(socbench(t), append([]string{"--golden", golden}, args...)...)
	cmd.Dir = t.TempDir()
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err = cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stdout.String(), stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stdout.String(), stderr.String()
	}
	t.Fatal(err)
	return 0, "", ""
}

// decodeResult decodes the last line of stdout strictly: exactly the four
// result keys, and exactly value and unit in each metric.
func decodeResult(t *testing.T, stdout string) runResult {
	t.Helper()
	lines := strings.Split(strings.TrimRight(stdout, "\n"), "\n")
	last := []byte(lines[len(lines)-1])
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(last, &keys); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, last)
	}
	if len(keys) != 4 {
		t.Errorf("result has %d keys, want correct, attempted, failed, metrics: %s", len(keys), last)
	}
	var res runResult
	dec := json.NewDecoder(bytes.NewReader(last))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("result schema: %v\n%s", err, last)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed < 0 || res.Failed > res.Attempted {
		t.Errorf("implausible result header: %+v", res)
	}
	return res
}

// checkDeclared asserts the printed metrics are exactly the declared ones,
// with the declared units.
func checkDeclared(t *testing.T, res runResult, names, units []string) {
	t.Helper()
	want := map[string]string{}
	for i, n := range names {
		want[n] = units[i]
	}
	for name, m := range res.Metrics {
		unit, ok := want[name]
		switch {
		case !ok:
			t.Errorf("metric %q is printed but not declared in BENCHMARK.json", name)
		case m.Unit != unit:
			t.Errorf("metric %q has unit %q, BENCHMARK.json declares %q", name, m.Unit, unit)
		}
	}
	for name := range want {
		if _, ok := res.Metrics[name]; !ok {
			t.Errorf("metric %q is declared in BENCHMARK.json but not printed", name)
		}
	}
}

func TestBenchmarkFileMatchesProgram(t *testing.T) {
	b := readBenchmark(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got := strings.Join(names, ","); got != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %s, program runs %s", got, strings.Join(workloadNames(), ","))
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d end-to-end and %d per-layer metrics, program has %d and %d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		if m := b.EndToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end[%d] = %+v, program declares %s (%s)", i, m, d.name, d.unit)
		}
	}
	for i, d := range perLayer {
		if m := b.PerLayer[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per_layer[%d] = %+v, program declares %s (%s)", i, m, d.name, d.unit)
		}
	}
}

// TestSmokeEveryWorkload runs each workload with a zero-length timed phase
// (the fewest operations, or the shortest ladder steps) and checks the
// result line and its metrics against BENCHMARK.json. The live run still
// takes ~25 s and the settle run ~15 s: their set-ups and fewest
// operations are the full experiment.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := readBenchmark(t)
	var names, units []string
	for _, m := range b.EndToEnd {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	for _, w := range b.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			code, stdout, stderr := runBench(t, "--workload", w.Name, "--seed", "2", "--seconds", "0", "--trace", "0")
			if code != 0 {
				t.Fatalf("exit %d\n%s", code, stderr)
			}
			res := decodeResult(t, stdout)
			checkDeclared(t, res, names, units)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
				}
			}
		})
	}
}

// TestTracedRunPrintsPerLayerMetrics checks the traced result and the span
// JSONL on the two fastest workloads.
func TestTracedRunPrintsPerLayerMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs workloads")
	}
	b := readBenchmark(t)
	var names, units []string
	for _, m := range b.PerLayer {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	for _, w := range []string{"fault_grade", "serve_warm"} {
		t.Run(w, func(t *testing.T) {
			spans := filepath.Join(t.TempDir(), "spans.jsonl")
			code, stdout, stderr := runBench(t, "--workload", w, "--seconds", "0", "--trace", "1", "--spans", spans)
			if code != 0 {
				t.Fatalf("exit %d\n%s", code, stderr)
			}
			checkDeclared(t, decodeResult(t, stdout), names, units)
			if !strings.Contains(stderr, "inclusive_s") {
				t.Errorf("no span table on stderr:\n%s", stderr)
			}
			f, err := os.Open(spans)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			n := 0
			sc := bufio.NewScanner(f)
			for sc.Scan() {
				var s spanRecord
				dec := json.NewDecoder(bytes.NewReader(sc.Bytes()))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&s); err != nil || s.Name == "" || s.End < s.Start || s.Run == "" {
					t.Fatalf("bad span line %q: %v", sc.Text(), err)
				}
				n++
			}
			if n == 0 {
				t.Error("span file is empty")
			}
		})
	}
}

// TestCorruptGoldenFails checks that an output differing from a golden file
// fails the run with no result line.
func TestCorruptGoldenFails(t *testing.T) {
	if testing.Short() {
		t.Skip("runs workloads")
	}
	for _, tc := range []struct{ workload, file string }{
		{"live_repro", "tables.txt"},
		{"live_repro", "live_soc1_seed1.json"},
		{"fault_grade", "grade_seed1.json"},
		{"serve_warm", "serve_catalog.json"},
	} {
		t.Run(tc.workload+"/"+tc.file, func(t *testing.T) {
			dir := t.TempDir()
			entries, err := os.ReadDir("testdata")
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				data, err := os.ReadFile(filepath.Join("testdata", e.Name()))
				if err != nil {
					t.Fatal(err)
				}
				if e.Name() == tc.file {
					i := bytes.IndexAny(data, "0123456789")
					data[i] = '0' + (data[i]-'0'+1)%10
				}
				if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			code, stdout, stderr := runBench(t, "--workload", tc.workload, "--seed", "1", "--seconds", "0", "--golden", dir)
			if code != 1 {
				t.Errorf("exit %d, want 1\n%s", code, stderr)
			}
			if strings.TrimSpace(stdout) != "" {
				t.Errorf("a failed check printed a result:\n%s", stdout)
			}
			if !strings.Contains(stderr, "differs from golden "+tc.file) {
				t.Errorf("stderr does not name the golden file:\n%s", stderr)
			}
		})
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "serve_warm", "--trace", "2"},
		{"--workload", "serve_warm", "--seconds", "-1"},
		{"--workload", "serve_warm", "--spans", "x.jsonl"},
		{"--workload", "serve_warm", "extra"},
	} {
		code, stdout, _ := runBench(t, args...)
		if code != 2 || stdout != "" {
			t.Errorf("%v: exit %d, stdout %q; want exit 2 and no output", args, code, stdout)
		}
	}
}

// TestRunScriptFailsWithoutTheRepository runs the command BENCHMARK.json
// declares in a directory holding only BENCHMARK.json and the benchmark's
// own files: the build must fail and print no result.
func TestRunScriptFailsWithoutTheRepository(t *testing.T) {
	b := readBenchmark(t)
	dir := t.TempDir()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "BENCHMARK.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, p := range b.Paths {
		err := filepath.WalkDir(filepath.Join("../..", p), func(src string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			rel, err := filepath.Rel("../..", src)
			if err != nil {
				return err
			}
			data, err := os.ReadFile(src)
			if err != nil {
				return err
			}
			dst := filepath.Join(dir, rel)
			if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
				return err
			}
			return os.WriteFile(dst, data, 0o644)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	args := append(b.Command[1:], "--workload", "serve_warm", "--seed", "1", "--seconds", "1", "--trace", "0")
	cmd := exec.Command(b.Command[0], args...)
	cmd.Dir = dir
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err == nil {
		t.Error("the command succeeded without the repository")
	}
	if strings.TrimSpace(stdout.String()) != "" {
		t.Errorf("printed a result without the repository:\n%s", stdout.String())
	}
}
