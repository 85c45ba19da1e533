package soc

import (
	"testing"

	"repro/internal/bench89"
	"repro/internal/netlist"
)

// buildSOC2 generates SOC2's four live cores (seed offset 1013 per
// instance, gate scale 1) and flattens them: the circuit building one live
// SOC2 run does before any ATPG.
func buildSOC2(tb testing.TB) {
	names := []string{"s953", "s5378", "s13207", "s15850"}
	cores := make([]*netlist.Circuit, len(names))
	for i, n := range names {
		p, ok := bench89.ProfileByName(n)
		if !ok {
			tb.Fatalf("no profile %q", n)
		}
		p.Seed += int64(i) * 1013
		c, err := bench89.Generate(p)
		if err != nil {
			tb.Fatal(err)
		}
		cores[i] = c
	}
	if _, err := Flatten("SOC2-flat", cores, FlattenOptions{Seed: 1, InterconnectFraction: 0.45}); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkBuildSOC2 times buildSOC2.
func BenchmarkBuildSOC2(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buildSOC2(b)
	}
}

// TestBuildSOC2Allocs bounds the allocations of building SOC2 (326 per
// build): nets are declared by number and named from one string per
// AddNets call, so the count does not grow with the gates.
func TestBuildSOC2Allocs(t *testing.T) {
	if n := testing.AllocsPerRun(5, func() { buildSOC2(t) }); n > 342 {
		t.Errorf("building SOC2 makes %v allocations, want at most 342", n)
	}
}
