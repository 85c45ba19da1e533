package faultsim

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/obs"
)

// TestEngineInstrumentation checks the counters and trace events an
// instrumented engine produces: patterns/drops add up, good.gates sums the
// live regions the good passes evaluated, detect.roots is positive and at
// most the fault evaluations (one per remaining fault per batch), and
// every batch event parses as JSON with a non-decreasing detected count.
func TestEngineInstrumentation(t *testing.T) {
	c := mustParse(t, "c17", c17Bench)
	flist := faults.CollapsedUniverse(c)

	var buf bytes.Buffer
	reg := obs.NewRegistry()
	col := obs.New(reg, obs.NewJSONLSink(&buf))

	e := NewEngine(c, flist)
	e.Instrument(col)
	var evaluated, faultEvals int64
	e.goodHook = func(e *Engine) {
		evaluated += int64(len(e.region))
		faultEvals += int64(len(e.remaining))
	}
	rng := rand.New(rand.NewSource(7))
	e.Apply(randomPatterns(rng, len(c.PseudoInputs()), 100))

	snap := reg.Snapshot()
	if got := snap.Counters["faultsim.patterns.applied"]; got != 100 {
		t.Errorf("patterns.applied = %d, want 100", got)
	}
	if got := snap.Counters["faultsim.faults.dropped"]; got != int64(e.DetectedCount()) {
		t.Errorf("faults.dropped = %d, want %d", got, e.DetectedCount())
	}
	if got := snap.Counters["faultsim.batches"]; got != 2 {
		t.Errorf("batches = %d, want 2", got)
	}
	if got := snap.Counters["faultsim.good.gates"]; got != evaluated || got == 0 {
		t.Errorf("good.gates = %d, want %d (> 0)", got, evaluated)
	}
	if got := snap.Counters["faultsim.detect.roots"]; got <= 0 || got > faultEvals {
		t.Errorf("detect.roots = %d, want 1..%d", got, faultEvals)
	}

	prev := -1
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var ev struct {
			Event    string `json:"event"`
			Detected int    `json:"detected"`
			Patterns int    `json:"patterns"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("trace line does not parse: %v\n%s", err, line)
		}
		if ev.Event != "faultsim.batch" {
			continue
		}
		if ev.Detected < prev {
			t.Errorf("trace detected count decreased: %d after %d", ev.Detected, prev)
		}
		prev = ev.Detected
	}
	if prev != e.DetectedCount() {
		t.Errorf("last traced detected = %d, engine = %d", prev, e.DetectedCount())
	}
}
