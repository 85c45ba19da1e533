package soc

import (
	"testing"

	"repro/internal/bench89"
	"repro/internal/netlist"
)

// BenchmarkBuildSOC2 generates SOC2's four live cores (seed offset 1013
// per instance, gate scale 1) and flattens them: the circuit building one
// live SOC2 run does before any ATPG.
func BenchmarkBuildSOC2(b *testing.B) {
	names := []string{"s953", "s5378", "s13207", "s15850"}
	profs := make([]bench89.Profile, len(names))
	for i, n := range names {
		p, ok := bench89.ProfileByName(n)
		if !ok {
			b.Fatalf("no profile %q", n)
		}
		p.Seed += int64(i) * 1013
		profs[i] = p
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cores := make([]*netlist.Circuit, len(profs))
		for k, p := range profs {
			c, err := bench89.Generate(p)
			if err != nil {
				b.Fatal(err)
			}
			cores[k] = c
		}
		if _, err := Flatten("SOC2-flat", cores, FlattenOptions{Seed: 1, InterconnectFraction: 0.45}); err != nil {
			b.Fatal(err)
		}
	}
}
