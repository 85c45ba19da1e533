package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cli"
)

// itc02x runs the command in-process and returns its exit code, its
// stdout, and stdout and stderr interleaved as a terminal shows them.
func itc02x(args ...string) (code int, stdout, all string) {
	var out, both bytes.Buffer
	code = run(args, io.MultiWriter(&out, &both), &both)
	return code, out.String(), both.String()
}

// TestJSONManifest checks -json on the single-SOC mode yields a manifest
// with the benchmark's TDV results instead of the table.
func TestJSONManifest(t *testing.T) {
	code, out, all := itc02x("-soc", "d695", "-json")
	if code != 0 {
		t.Fatalf("itc02x -json: exit %d\n%s", code, all)
	}
	var man struct {
		Tool    string         `json:"tool"`
		Options map[string]any `json:"options"`
		Results map[string]any `json:"results"`
	}
	if err := json.Unmarshal([]byte(out), &man); err != nil {
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

// TestTablesRender checks the default run prints Tables 3 and 4.
func TestTablesRender(t *testing.T) {
	code, out, all := itc02x()
	if code != 0 {
		t.Fatalf("itc02x: exit %d\n%s", code, all)
	}
	if !strings.Contains(out, "Table 4") {
		t.Errorf("tables missing:\n%s", out)
	}
}

// TestTraceFlushed checks -trace writes a JSONL trace ending in the
// manifest event.
func TestTraceFlushed(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.jsonl")
	if code, _, out := itc02x("-soc", "d695", "-trace", trace); code != 0 {
		t.Fatalf("itc02x -trace: exit %d\n%s", code, out)
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
	if code, _, out := itc02x("stray"); code != cli.ExitUsage {
		t.Fatalf("exit %d, want %d\n%s", code, cli.ExitUsage, out)
	}
	code, ex, all := itc02x("-emit", "p34392")
	if code != 0 || !strings.Contains(ex, "soc p34392") {
		t.Fatalf("-emit: exit %d\n%s", code, all)
	}
}
