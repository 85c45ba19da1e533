package repro

import (
	"testing"

	"repro/internal/obs"
)

// TestLiveSOC1SearchCounters pins the PODEM search effort of the live SOC1
// experiment on seed 1 — per-core and monolithic ATPG together. Any change
// to the search order, implication or fault dropping moves these counts,
// so a rewrite that claims to be bit-identical must leave them alone.
func TestLiveSOC1SearchCounters(t *testing.T) {
	reg := obs.NewRegistry()
	atpg := DefaultATPGOptions()
	atpg.Seed = 1
	if _, err := LiveSOC1(LiveOptions{ATPG: atpg, GateScale: 1, Seed: 1, Obs: obs.New(reg, nil)}); err != nil {
		t.Fatal(err)
	}
	got := reg.Snapshot().Counters
	for name, want := range map[string]int64{
		"atpg.decisions":       22259,
		"atpg.backtracks":      4995,
		"atpg.implications":    27645,
		"atpg.faults.targeted": 485,
	} {
		if got[name] != want {
			t.Errorf("%s = %d, want %d", name, got[name], want)
		}
	}
	// Event-driven implication: one step evaluates a handful of gates, not
	// the ~2,000 a full sweep of the flattened SOC1 would.
	if evals, steps := got["atpg.implication.gate_evals"], got["atpg.implications"]; evals*10 > steps*2071 {
		t.Errorf("%d gate evaluations over %d implications: per-step work is not 10x below a full sweep", evals, steps)
	}
}
