package repro

// Extension benches: features beyond the paper's own evaluation that its
// text motivates — wrapper design, test power and test ordering (the
// test-time dimension the paper's TDV analysis deliberately excludes), and
// dynamic compaction (mentioned in Section 3 as the alternative to the
// static compaction the generator uses).

import (
	"fmt"
	"testing"

	"repro/internal/atpg"
	"repro/internal/bench89"
	"repro/internal/power"
	"repro/internal/report"
	"repro/internal/sched"
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

// BenchmarkExtensionPowerSessions runs power-constrained session
// scheduling over SOC2's cores: test power is the first benefit of modular
// testing the paper's introduction lists, and sessions are how the
// scheduling literature it cites [17, 18] exploits it.
func BenchmarkExtensionPowerSessions(b *testing.B) {
	cores := soc2CoreTests()
	var loads []power.CoreLoad
	for _, c := range cores {
		wc, err := tam.DesignWrapper(c, 8)
		if err != nil {
			b.Fatal(err)
		}
		loads = append(loads, power.CoreLoad{
			Name:  c.Name,
			Time:  tam.TestTime(c, wc),
			Power: int64(c.ScanCells() + c.Inputs + c.Outputs), // toggling cells as the power proxy
		})
	}
	render := func() string {
		t := report.New("Extension: power-constrained session scheduling (SOC2, W=8 wrappers)",
			"Power budget", "Sessions", "Total time", "vs serial")
		serial := power.SerialTime(loads)
		for _, budget := range []int64{400, 800, 1200, 2400} {
			s, err := power.ScheduleSessions(loads, budget)
			if err != nil {
				t.AddRow(fmt.Sprint(budget), "infeasible", "", "")
				continue
			}
			t.AddRow(fmt.Sprint(budget), fmt.Sprint(len(s.Sessions)),
				report.Int(s.TotalTime),
				fmt.Sprintf("%.0f%%", float64(s.TotalTime)/float64(serial)*100))
		}
		return t.String()
	}
	printHeaderOnce("ext-pow", render())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := power.ScheduleSessions(loads, 2400); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionAbortOnFail orders SOC2's core tests for an
// abort-on-first-fail flow (references [15, 16]): flaky-but-quick cores
// first minimizes the expected tester occupancy.
func BenchmarkExtensionAbortOnFail(b *testing.B) {
	cores := soc2CoreTests()
	var tests []sched.Test
	for i, c := range cores {
		wc, err := tam.DesignWrapper(c, 8)
		if err != nil {
			b.Fatal(err)
		}
		// Failure probability proxy: larger cores fail more often.
		tests = append(tests, sched.Test{
			Name:     c.Name,
			Time:     tam.TestTime(c, wc),
			FailProb: 0.02 * float64(i+1),
		})
	}
	opt, err := sched.Optimize(tests)
	if err != nil {
		b.Fatal(err)
	}
	render := func() string {
		t := report.New("Extension: abort-on-fail ordering (SOC2, synthetic fail probabilities)",
			"Order", "Expected time", "Serial time")
		t.AddRow("as-listed", report.Int(int64(sched.ExpectedTime(tests))), report.Int(sched.SerialTime(tests)))
		t.AddRow("optimized (t/p)", report.Int(int64(sched.ExpectedTime(opt))), report.Int(sched.SerialTime(opt)))
		return t.String()
	}
	printHeaderOnce("ext-aof", render())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.Optimize(tests); err != nil {
			b.Fatal(err)
		}
	}
}
