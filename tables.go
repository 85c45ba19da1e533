package repro

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/itc02"
	"repro/internal/par"
	"repro/internal/report"
	"repro/internal/soc"
)

// renderSOCTable renders a Table 1/2-style per-core breakdown plus the
// monolithic comparison block underneath, exactly the layout of the paper.
func renderSOCTable(title string, s *core.SOC) string {
	t := report.New(title, "Module", "I", "O", "S", "T", "TDV")
	for _, m := range s.Modules()[1:] {
		t.AddRow(m.Name,
			fmt.Sprint(m.Inputs), fmt.Sprint(m.Outputs),
			fmt.Sprint(m.ScanCells), fmt.Sprint(m.Patterns),
			report.Int(m.ModularTDV()))
	}
	top := s.Top
	t.AddRow(top.Name+" (top)",
		fmt.Sprint(top.Inputs), fmt.Sprint(top.Outputs),
		fmt.Sprint(top.ScanCells), fmt.Sprint(top.Patterns),
		report.Int(top.ModularTDV()))
	t.AddFooter("SOC (modular)", "", "", "", "", report.Int(s.TDVModular()))
	if s.TMono > 0 {
		t.AddFooter("Mono", fmt.Sprint(top.Inputs), fmt.Sprint(top.Outputs),
			report.Int(s.TotalScanCells()), fmt.Sprint(s.TMono), report.Int(s.TDVMono()))
	}
	t.AddFooter("Mono opt", fmt.Sprint(top.Inputs), fmt.Sprint(top.Outputs),
		report.Int(s.TotalScanCells()), fmt.Sprint(s.MaxPatterns()), report.Int(s.TDVMonoOpt()))

	var b strings.Builder
	b.WriteString(t.String())
	r := s.Analyze()
	ref := r.TMax
	if s.TMono > 0 {
		ref = s.TMono
	}
	fmt.Fprintf(&b, "\nTDV_penalty (Eq.7) = %s   TDV_benefit (Eq.8, T=%d) = %s   chip-port term = %s\n",
		report.Int(r.Penalty), ref, report.Int(r.Benefit), report.Int(r.ChipPort))
	if r.RatioVsActual > 0 {
		fmt.Fprintf(&b, "reduction ratio = %s (pessimistic %s, pessimism factor %.1fx)\n",
			report.Ratio(r.RatioVsActual), report.Ratio(r.RatioVsOpt), r.PessimismFactor)
	}
	return b.String()
}

// RenderTable1 regenerates the paper's Table 1 (SOC1) from the published
// per-core profile.
func RenderTable1() string {
	return renderSOCTable("Table 1: test data volume comparison for SOC1", SOC1())
}

// RenderTable2 regenerates the paper's Table 2 (SOC2).
func RenderTable2() string {
	return renderSOCTable("Table 2: test data volume comparison for SOC2", SOC2())
}

// RenderTable3 regenerates the paper's Table 3: the per-core TDV
// computation for ITC'02 SOC p34392 (with the Core-10 erratum corrected;
// see internal/itc02).
func RenderTable3() string {
	s := itc02.P34392()
	t := report.New("Table 3: test data volume computation for SOC p34392",
		"Core", "Embeds", "I", "O", "B", "S", "T", "TDV")
	for _, m := range s.Modules() {
		var kids []string
		for _, ch := range m.Children {
			kids = append(kids, strings.TrimPrefix(strings.TrimSuffix(ch.Name, "(top)"), "Core"))
		}
		embeds := "-"
		if len(kids) > 0 {
			embeds = strings.Join(kids, ",")
		}
		t.AddRow(m.Name, embeds,
			fmt.Sprint(m.Inputs), fmt.Sprint(m.Outputs), fmt.Sprint(m.Bidirs),
			fmt.Sprint(m.ScanCells), fmt.Sprint(m.Patterns),
			report.Int(m.ModularTDV()))
	}
	t.AddFooter("SOC", "", "", "", "", "", "", report.Int(s.TDVModular()))
	return t.String()
}

// Table4Row is one computed row of the Table 4 reproduction, paired with
// the published values for comparison.
type Table4Row struct {
	Name      string
	Published itc02.PublishedRow
	Computed  core.Report
}

// Table4 computes the full Table 4: p34392 from the embedded Table 3 data,
// the other nine SOCs from calibrated synthesized profiles. The ten SOC
// syntheses run concurrently, bounded by runtime.NumCPU().
func Table4() ([]Table4Row, error) {
	return Table4Workers(0)
}

// Table4Workers is Table4 with an explicit worker bound: 0 resolves to
// runtime.NumCPU(), 1 computes serially. Each SOC synthesis is independent
// and writes its own index-addressed row, so the table is identical for
// every worker count.
func Table4Workers(workers int) ([]Table4Row, error) {
	pubs := itc02.PublishedTable4()
	rows := make([]Table4Row, len(pubs))
	if _, err := par.ForEach(nil, len(pubs), workers, func(i int) error {
		s, err := itc02.SOCByName(pubs[i].Name)
		if err != nil {
			return err
		}
		rows[i] = Table4Row{Name: pubs[i].Name, Published: pubs[i], Computed: s.Analyze()}
		return nil
	}); err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderTable4 regenerates the paper's Table 4 with the computed values.
func RenderTable4() (string, error) {
	rows, err := Table4()
	if err != nil {
		return "", err
	}
	return RenderTable4Rows(rows), nil
}

// RenderTable4Rows renders already-computed Table 4 rows, letting callers
// reuse one Table4Workers computation for both the table and their own
// analysis.
func RenderTable4Rows(rows []Table4Row) string {
	t := report.New("Table 4: test data volume comparison for ITC'02 SOC benchmarks",
		"SOC", "Cores", "NormStdev", "TDV_mono_opt", "TDV_penalty", "TDV_benefit", "TDV_modular", "Change")
	var penPct, benPct, modPct float64
	for _, r := range rows {
		c := r.Computed
		t.AddRow(r.Name, fmt.Sprint(c.NumCores), report.Fixed2(c.NormStdev),
			report.Int(c.TDVMonoOpt),
			report.Int(c.Penalty)+" = "+report.Pct(c.PenaltyPctVsOpt),
			report.Int(c.Benefit)+" = "+report.Pct(-c.BenefitPctVsOpt),
			report.Int(c.TDVModular),
			report.Pct(c.ReductionVsOpt))
		penPct += c.PenaltyPctVsOpt
		benPct += c.BenefitPctVsOpt
		modPct += c.ReductionVsOpt
	}
	n := float64(len(rows))
	t.AddFooter("Average", "", "", "", report.Pct(penPct/n), report.Pct(-benPct/n), "", report.Pct(modPct/n))
	return t.String()
}

// RenderFigure1 reproduces the worked example of Figure 1: three cones,
// monolithic stimulus volume under perfect compaction.
func RenderFigure1() string {
	m := ConeExample()
	var b strings.Builder
	b.WriteString("Figure 1: cone structure of a design (worked example)\n")
	for _, c := range m.Cones {
		fmt.Fprintf(&b, "  %-7s %2d scan flip-flops, %3d partial patterns\n", c.Name, c.Cells, c.Patterns)
	}
	fmt.Fprintf(&b, "monolithic (perfect compaction): %d patterns x %d bits = %s stimulus bits\n",
		m.MaxPatterns(), m.TotalCells(), report.Int(m.MonolithicStimulusBits()))
	return b.String()
}

// RenderFigure2 reproduces Figure 2: the same design partitioned into
// cores, tested modularly.
func RenderFigure2() string {
	m := ConeExample()
	var b strings.Builder
	b.WriteString("Figure 2: design partitioned into cores (worked example)\n")
	var terms []string
	for _, c := range m.Cones {
		terms = append(terms, fmt.Sprintf("%dx%d", c.Patterns, c.Cells))
	}
	fmt.Fprintf(&b, "modular stimulus volume: %s = %s bits\n",
		strings.Join(terms, " + "), report.Int(m.ModularStimulusBits()))
	fmt.Fprintf(&b, "reduction over monolithic: %.0f%%\n", m.Reduction()*100)
	return b.String()
}

// RenderFigure3 reproduces the Figure 3 sketch: the p34392 hierarchy.
func RenderFigure3() string {
	s := itc02.P34392()
	var b strings.Builder
	b.WriteString("Figure 3: p34392 SOC from ITC'02 benchmarks\n")
	var walk func(m *core.Module, depth int)
	walk = func(m *core.Module, depth int) {
		fmt.Fprintf(&b, "%s%s\n", strings.Repeat("  ", depth), m.Name)
		for _, ch := range m.Children {
			walk(ch, depth+1)
		}
	}
	walk(s.Top, 0)
	return b.String()
}

// RenderFigure4 reproduces the Figure 4 sketch: the SOC1 topology.
func RenderFigure4() string {
	return "Figure 4: SOC1 constructed with ISCAS'89 cores\n" + soc.Describe(soc.SOC1Profile())
}

// RenderFigure5 reproduces the Figure 5 sketch: the SOC2 topology.
func RenderFigure5() string {
	return "Figure 5: SOC2 constructed with ISCAS'89 cores\n" + soc.Describe(soc.SOC2Profile())
}
