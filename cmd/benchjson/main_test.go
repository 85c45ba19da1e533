package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
)

// The exec-level tests share one benchjson binary: buildBinary compiles it on
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

// buildBinary returns the path of the benchjson binary, compiling it once per
// test binary. Exec-level tests need the real process: signal handling,
// exit codes and flushed output only exist there.
func buildBinary(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("exec test skipped in -short mode")
	}
	buildOnce.Do(func() {
		if buildDir, buildErr = os.MkdirTemp("", "benchjson-test-"); buildErr != nil {
			return
		}
		bin := filepath.Join(buildDir, "benchjson")
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

// reportSchema mirrors the JSON contract; unknown-field checks below keep it
// honest against drift in main.go's report struct.
type reportSchema struct {
	Mode    string `json:"mode"`
	Version string `json:"version"`
	Host    struct {
		CPUs       int    `json:"cpus"`
		GoMaxProcs int    `json:"gomaxprocs"`
		GoVersion  string `json:"go_version"`
	} `json:"host"`
	Cases []struct {
		Name       string `json:"name"`
		Patterns   int    `json:"patterns"`
		Faults     int    `json:"faults"`
		TAM        int    `json:"tam"`
		Cores      int    `json:"cores"`
		TotalTime  int64  `json:"total_time"`
		LowerBound int64  `json:"lower_bound"`
		Results    []struct {
			Engine  string  `json:"engine"`
			NsPerOp int64   `json:"ns_per_op"`
			Speedup float64 `json:"speedup"`
			LBRatio float64 `json:"lb_ratio"`
		} `json:"results"`
	} `json:"cases"`
}

func runAndParse(t *testing.T, bin string, args ...string) reportSchema {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("benchjson %v: %v\n%s", args, err, out)
	}
	var outFile string
	for i, a := range args {
		if a == "-out" {
			outFile = args[i+1]
		}
	}
	data, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatalf("report not written: %v", err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var rep reportSchema
	if err := dec.Decode(&rep); err != nil {
		t.Fatalf("report schema drifted: %v\n%s", err, data)
	}
	if rep.Host.CPUs < 1 || rep.Host.GoMaxProcs < 1 || rep.Host.GoVersion == "" {
		t.Fatalf("host block incomplete: %+v", rep.Host)
	}
	return rep
}

// TestKernelModeSchema runs -mode kernel -quick end to end and pins the
// report shape: one serial row and one ppsfp row per case, real timings,
// and a speedup computed against the serial engine.
func TestKernelModeSchema(t *testing.T) {
	bin := buildBinary(t)
	out := filepath.Join(t.TempDir(), "kernel.json")
	rep := runAndParse(t, bin, "-quick", "-mode", "kernel", "-out", out)
	if rep.Mode != "kernel" {
		t.Fatalf("mode %q, want kernel", rep.Mode)
	}
	if len(rep.Cases) != 1 {
		t.Fatalf("quick kernel mode: %d cases, want 1", len(rep.Cases))
	}
	c := rep.Cases[0]
	if c.Name != "kernel/s713" || c.Patterns != 128 || c.Faults <= 0 {
		t.Fatalf("unexpected case header: %+v", c)
	}
	if len(c.Results) != 2 {
		t.Fatalf("%d result rows, want 2 (serial, ppsfp)", len(c.Results))
	}
	serial, ppsfp := c.Results[0], c.Results[1]
	if serial.Engine != "serial" || ppsfp.Engine != "ppsfp" {
		t.Fatalf("engines %q/%q, want serial/ppsfp", serial.Engine, ppsfp.Engine)
	}
	if serial.NsPerOp <= 0 || ppsfp.NsPerOp <= 0 {
		t.Fatalf("non-positive timings: serial=%d ppsfp=%d", serial.NsPerOp, ppsfp.NsPerOp)
	}
	if serial.Speedup != 1 {
		t.Fatalf("serial baseline speedup %v, want 1", serial.Speedup)
	}
	if ppsfp.Speedup <= 0 {
		t.Fatalf("ppsfp speedup %v, want > 0", ppsfp.Speedup)
	}
}

// TestScheduleModeSchema pins the packer-benchmark shape: a pack row with
// a real timing and an achieved-vs-lower-bound ratio in [1, 2].
func TestScheduleModeSchema(t *testing.T) {
	bin := buildBinary(t)
	out := filepath.Join(t.TempDir(), "schedule.json")
	rep := runAndParse(t, bin, "-quick", "-mode", "schedule", "-out", out)
	if rep.Mode != "schedule" {
		t.Fatalf("mode %q, want schedule", rep.Mode)
	}
	if len(rep.Cases) != 1 {
		t.Fatalf("quick schedule mode: %d cases, want 1", len(rep.Cases))
	}
	c := rep.Cases[0]
	if c.Name != "schedule/d695" || c.TAM != 32 || c.Cores <= 0 {
		t.Fatalf("unexpected case header: %+v", c)
	}
	if c.TotalTime <= 0 || c.LowerBound <= 0 || c.TotalTime > 2*c.LowerBound {
		t.Fatalf("times outside contract: total=%d lb=%d", c.TotalTime, c.LowerBound)
	}
	if len(c.Results) != 1 {
		t.Fatalf("%d result rows, want 1 (pack)", len(c.Results))
	}
	r := c.Results[0]
	if r.Engine != "pack" || r.NsPerOp <= 0 {
		t.Fatalf("pack row malformed: %+v", r)
	}
	if r.LBRatio < 1 || r.LBRatio > 2 {
		t.Fatalf("lb_ratio %v outside [1, 2]", r.LBRatio)
	}
}

// TestUnknownModeFails: an invalid -mode must exit non-zero and write nothing.
func TestUnknownModeFails(t *testing.T) {
	bin := buildBinary(t)
	out := filepath.Join(t.TempDir(), "x.json")
	_, err := exec.Command(bin, "-mode", "bogus", "-out", out).CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() == 0 {
		t.Fatalf("want non-zero exit, got %v", err)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("report written despite bad mode: %v", err)
	}
}
