package repro

// Extension benches: features beyond the paper's own evaluation that its
// text motivates — wrapper design (the test-time dimension the paper's
// TDV analysis deliberately excludes) and dynamic compaction (mentioned in Section 3 as the alternative to the
// static compaction the generator uses).

import (
	"fmt"
	"testing"

	"repro/internal/atpg"
	"repro/internal/bench89"
	"repro/internal/report"
	"repro/internal/tam"
)

// soc2CoreTests builds TAM core descriptions from SOC2's published profile,
// with each core's scan cells split into four balanced internal chains.
func soc2CoreTests() []tam.CoreTest {
	var cores []tam.CoreTest
	for _, m := range SOC2().Modules()[1:] {
		c := tam.CoreTest{
			Name:     m.Name,
			Inputs:   m.Inputs,
			Outputs:  m.Outputs,
			Bidirs:   m.Bidirs,
			Patterns: m.Patterns,
		}
		if m.ScanCells > 0 {
			per := m.ScanCells / 4
			rem := m.ScanCells - 3*per
			c.Chains = []int{rem, per, per, per}
		}
		cores = append(cores, c)
	}
	return cores
}

// BenchmarkExtensionWrapperWidthSweep sweeps the wrapper width of the
// s5378-shaped core and reports test time and idle bits per width — the
// wrapper design trade-off of the paper's reference [6].
func BenchmarkExtensionWrapperWidthSweep(b *testing.B) {
	core := soc2CoreTests()[1] // s5378
	render := func() string {
		t := report.New("Extension: wrapper width sweep for the s5378 profile (T=244)",
			"W", "max si", "max so", "Test time", "Idle bits/pattern")
		for _, w := range []int{1, 2, 4, 8, 16, 32} {
			wc, err := tam.DesignWrapper(core, w)
			if err != nil {
				b.Fatal(err)
			}
			t.AddRow(fmt.Sprint(w), fmt.Sprint(wc.MaxIn()), fmt.Sprint(wc.MaxOut()),
				report.Int(tam.TestTime(core, wc)), report.Int(wc.IdleBitsPerPattern()))
		}
		return t.String()
	}
	printHeaderOnce("ext-wrap", render())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tam.DesignWrapper(core, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDynamicCompaction compares static-only against
// dynamic+static compaction on the s953 stand-in — the paper's Section 3
// distinction between the two compaction styles, made measurable.
func BenchmarkAblationDynamicCompaction(b *testing.B) {
	prof, _ := bench89.ProfileByName("s953")
	c := bench89.MustGenerate(prof)
	static := atpg.Options{BacktrackLimit: 100, RandomPatterns: 0, Compact: true, Seed: 1}
	dynamic := static
	dynamic.DynamicCompact = true
	dynamic.DynamicTargets = 24
	render := func() string {
		t := report.New("Ablation: static vs dynamic compaction (s953 stand-in)",
			"Configuration", "Raw cubes", "Patterns", "Coverage")
		for _, cfg := range []struct {
			name string
			o    atpg.Options
		}{{"static only", static}, {"dynamic + static", dynamic}} {
			r := atpg.Generate(c, cfg.o)
			t.AddRow(cfg.name, fmt.Sprint(len(r.Cubes)), fmt.Sprint(r.PatternCount()),
				fmt.Sprintf("%.1f%%", r.Coverage*100))
		}
		return t.String()
	}
	printHeaderOnce("abl-dyn", render())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := atpg.Generate(c, dynamic)
		if r.PatternCount() == 0 {
			b.Fatal("no patterns")
		}
	}
}
