package main

import (
	"bytes"
	"encoding/json"
	"fmt"
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

// socsched runs the command in-process and returns its exit code, its
// stdout, and stdout and stderr interleaved as a terminal shows them.
func socsched(args ...string) (code int, stdout, all string) {
	var out, both bytes.Buffer
	code = run(args, io.MultiWriter(&out, &both), &both)
	return code, out.String(), both.String()
}

// TestScheduleArtifactDeterministicAcrossWorkersAndRestarts is the
// acceptance gate at the command level: the sweep artifact must be
// byte-identical for every -workers value, and the single-width schedule
// byte-identical across fresh runs (checkpointless restart — no state
// carries over).
func TestScheduleArtifactDeterministicAcrossWorkersAndRestarts(t *testing.T) {
	dir := t.TempDir()

	var ref []byte
	for _, workers := range []string{"1", "2", "4", "8"} {
		out := filepath.Join(dir, "sweep-"+workers+".json")
		if code, _, b := socsched("-soc", "g1023", "-workers", workers, "-out", out); code != 0 {
			t.Fatalf("workers=%s: exit %d\n%s", workers, code, b)
		}
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = b
			continue
		}
		if !bytes.Equal(b, ref) {
			t.Fatalf("-workers %s artifact differs", workers)
		}
	}

	var schedRef []byte
	for run := 0; run < 2; run++ {
		out := filepath.Join(dir, fmt.Sprintf("sched-%d.json", run))
		if code, _, b := socsched("-soc", "d695", "-tam", "32", "-out", out); code != 0 {
			t.Fatalf("run %d: exit %d\n%s", run, code, b)
		}
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if schedRef == nil {
			schedRef = b
			continue
		}
		if !bytes.Equal(b, schedRef) {
			t.Fatal("restarted process produced a different schedule artifact")
		}
	}

	var sch struct {
		SOC        string  `json:"soc"`
		TotalTime  int64   `json:"total_time"`
		LowerBound int64   `json:"lower_bound"`
		LBRatio    float64 `json:"lb_ratio"`
	}
	if err := json.Unmarshal(schedRef, &sch); err != nil {
		t.Fatal(err)
	}
	if sch.SOC != "d695" || sch.TotalTime <= 0 {
		t.Fatalf("implausible artifact: %+v", sch)
	}
	if sch.TotalTime > 2*sch.LowerBound {
		t.Fatalf("total %d exceeds 2x lower bound %d", sch.TotalTime, sch.LowerBound)
	}
}

func TestManifestJSON(t *testing.T) {
	code, out, all := socsched("-soc", "h953", "-tam", "32", "-json")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, all)
	}
	var man struct {
		Tool    string         `json:"tool"`
		Results map[string]any `json:"results"`
	}
	if err := json.Unmarshal([]byte(out), &man); err != nil {
		t.Fatalf("manifest not JSON: %v\n%s", err, out)
	}
	if man.Tool != "socsched" {
		t.Fatalf("tool = %q", man.Tool)
	}
	if _, ok := man.Results["total_time"]; !ok {
		t.Fatalf("manifest missing total_time: %v", man.Results)
	}
}

func TestUsageErrors(t *testing.T) {
	if code, _, out := socsched("-tam", "32"); code != cli.ExitUsage {
		t.Fatalf("-tam without -soc: exit %d, want %d\n%s", code, cli.ExitUsage, out)
	}
	if code, _, out := socsched("stray"); code != cli.ExitUsage {
		t.Fatalf("stray arg: exit %d, want %d\n%s", code, cli.ExitUsage, out)
	}
	code, _, out := socsched("-soc", "nope", "-tam", "32")
	if code != cli.ExitRuntime {
		t.Fatalf("unknown soc: exit %d, want %d\n%s", code, cli.ExitRuntime, out)
	}
	if !strings.Contains(out, "unknown SOC") {
		t.Fatalf("error message lost: %s", out)
	}
	// coopt.Options.Validate refuses a width or budget before any packing:
	// nothing reaches stdout.
	for _, args := range [][]string{
		{"-soc", "d695", "-tam", "65"},
		{"-soc", "d695", "-tam", "-1"},
		{"-soc", "d695", "-tam", "32", "-power", "-1"},
		{"-soc", "d695", "-power", "-1"},
	} {
		code, stdout, out := socsched(args...)
		if code != cli.ExitUsage || stdout != "" {
			t.Errorf("%v: exit %d, want %d with empty stdout\n%s", args, code, cli.ExitUsage, out)
		}
		if !strings.Contains(out, "socsched: coopt: ") {
			t.Errorf("%v: message is not coopt's: %s", args, out)
		}
	}
}

func TestHumanTables(t *testing.T) {
	code, _, out := socsched("-soc", "d695")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, out)
	}
	if !strings.Contains(out, "d695 TAM-width sweep") {
		t.Fatalf("sweep table missing:\n%s", out)
	}
	code, _, out = socsched("-soc", "d695", "-tam", "16")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, out)
	}
	if !strings.Contains(out, "abort-on-fail") {
		t.Fatalf("abort ordering missing:\n%s", out)
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

// TestArtifactMatchesServedSchedule holds socsched -out to socd: the
// schedule artifact is the /v1/schedule response byte for byte, with and
// without a power budget.
func TestArtifactMatchesServedSchedule(t *testing.T) {
	for _, tc := range []struct {
		args []string
		body string
	}{
		{[]string{"-soc", "d695", "-tam", "32"}, `{"builtin":"d695","tam":32}`},
		{[]string{"-soc", "d695", "-tam", "16", "-power", "5000"}, `{"builtin":"d695","tam":16,"power_budget":5000}`},
	} {
		out := filepath.Join(t.TempDir(), "s.json")
		if code, _, all := socsched(append(tc.args, "-out", out)...); code != 0 {
			t.Fatalf("%v: exit %d\n%s", tc.args, code, all)
		}
		art, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if served := serve(t, "/v1/schedule", tc.body); !bytes.Equal(art, served) {
			t.Errorf("%v: artifact differs from /v1/schedule:\n%s\n%s", tc.args, art, served)
		}
	}
}
