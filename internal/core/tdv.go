// Package core implements the paper's primary contribution: the test data
// volume (TDV) formulation of Section 4 comparing monolithic testing of a
// flattened SOC against modular, wrapper-isolated core-by-core testing.
//
// Equation numbering follows the paper:
//
//	(1) TDV_mono     = (I_chip + O_chip + 2B_chip + 2S_chip) · T_mono
//	(2) T_mono      ≥ max_i T_i                         (validated empirically)
//	(3) TDV_mono^opt = (I_chip + O_chip + 2B_chip + 2S_chip) · max_i T_i
//	(4) TDV_modular  = Σ_P T_P · (2S_P + ISOCOST_P)
//	(5) ISOCOST_P    = I_P + O_P + 2B_P + Σ_{C ∈ Child(P)} (I_C + O_C + 2B_C)
//	(6) TDV_modular  = TDV_mono + TDV_penalty − TDV_benefit − chip-port term
//	(7) TDV_penalty  = Σ_A T_A · ISOCOST_A
//	(8) TDV_benefit  = Σ_A (T_mono − T_A) · 2S_A
//
// Note on (6): expanding (1), (4), (7) and (8) shows the exact identity is
//
//	TDV_modular = TDV_mono + TDV_penalty − TDV_benefit
//	              − (I_chip + O_chip + 2B_chip) · T_mono
//
// The final term is the chip-level port data that the monolithic test pays
// on every one of its T_mono patterns, while the modular test pays chip
// ports only T_top times inside ISOCOST of the top module. The paper states
// (6) without this term; its Table 4 numbers absorb it into the printed
// penalty/benefit columns. This package computes all quantities from first
// principles and exposes the correction term explicitly. See EXPERIMENTS.md
// for the quantitative comparison.
package core

import (
	"fmt"
	"math"
)

// Params are the test parameters of one module: port counts, internal scan
// cells, and test pattern count.
type Params struct {
	Inputs    int
	Outputs   int
	Bidirs    int
	ScanCells int
	Patterns  int
}

// PortBits returns I + O + 2B: the per-pattern data on the module's
// terminals (each bidir needs one stimulus and one response bit).
func (p Params) PortBits() int64 {
	return int64(p.Inputs) + int64(p.Outputs) + 2*int64(p.Bidirs)
}

// Module is one core (or the SOC top level) with its direct children; the
// hierarchy mirrors the SOC design tree (paper Figure 3).
type Module struct {
	Name string
	Params
	Children []*Module
	// ScanChains optionally lists the module's internal scan-chain lengths
	// (the ITC'02 benchmark files publish these per core). When present,
	// their sum must equal ScanCells, or SOC.Validate refuses the profile:
	// the TDV formulas consume only the total, but the per-chain breakdown
	// feeds wrapper/TAM design.
	ScanChains []int
	// PortsTesterAccessible marks a module whose own terminals are chip
	// pins driven directly by the tester, so they carry no dedicated
	// wrapper cells and contribute nothing to ISOCOST (only the child
	// terms of Equation 5 remain). The paper's SOC1/SOC2 top-level logic
	// (Tables 1-2) is accounted this way; the ITC'02 computation
	// (Table 3) instead wraps the top module's ports like any core.
	PortsTesterAccessible bool
}

// Flatten returns the module and all its descendants in pre-order.
func (m *Module) Flatten() []*Module { return m.appendTree(nil) }

// appendTree appends the module and its descendants to out in pre-order.
func (m *Module) appendTree(out []*Module) []*Module {
	out = append(out, m)
	for _, ch := range m.Children {
		out = ch.appendTree(out)
	}
	return out
}

// ScanChainSum returns the total length of the declared scan chains, or 0
// when the module does not publish a per-chain breakdown.
func (m *Module) ScanChainSum() int {
	n := 0
	for _, l := range m.ScanChains {
		n += l
	}
	return n
}

// ISOCost computes Equation 5 for the module: its own port bits plus the
// port bits of its direct children (tested in ExTest while the parent is in
// InTest). A module with PortsTesterAccessible set contributes only the
// child terms.
func (m *Module) ISOCost() int64 {
	var n int64
	if !m.PortsTesterAccessible {
		n = m.PortBits()
	}
	for _, ch := range m.Children {
		n += ch.PortBits()
	}
	return n
}

// ModularTDV computes the module's own term of Equation 4:
// T_P · (2S_P + ISOCOST_P).
func (m *Module) ModularTDV() int64 {
	return int64(m.Patterns) * (2*int64(m.ScanCells) + m.ISOCost())
}

// SOC is a complete SOC profile: the top-level module (whose own Params
// describe the chip-level ports and top-level glue logic) plus, optionally,
// a measured monolithic pattern count.
type SOC struct {
	Name string
	// Top is the top-level module; Top.Params holds the chip ports, the
	// top-level glue scan cells and glue pattern count, and Top.Children
	// the first-level cores.
	Top *Module
	// TMono is the measured pattern count of the flattened monolithic
	// design, when an actual monolithic ATPG run is available (Tables 1-2);
	// zero when only the optimistic bound of Equation 3 applies (Table 4).
	TMono int
}

// Modules returns all modules including the top, in pre-order.
func (s *SOC) Modules() []*Module { return s.Top.Flatten() }

// totals are the sums over all modules that the SOC-level equations read.
type totals struct {
	modules          int
	tmax             int   // max_i T_i
	scan, scanT      int64 // Σ S and Σ T·S
	modular, penalty int64 // Eq. 4 and Eq. 7
	ts               []int // the positive pattern counts, in pre-order
}

// sums gathers the totals in one pre-order walk of the module tree.
func (s *SOC) sums() totals {
	t := totals{ts: make([]int, 0, 64)}
	t.add(s.Top)
	return t
}

func (t *totals) add(m *Module) {
	t.modules++
	t.tmax = max(t.tmax, m.Patterns)
	t.scan += int64(m.ScanCells)
	t.scanT += int64(m.Patterns) * int64(m.ScanCells)
	t.modular += m.ModularTDV()
	t.penalty += int64(m.Patterns) * m.ISOCost()
	if m.Patterns > 0 {
		t.ts = append(t.ts, m.Patterns)
	}
	for _, ch := range m.Children {
		t.add(ch)
	}
}

// benefit is Equation 8 from the sums: Σ (tmono − T)·2S summed as
// 2·(tmono·ΣS − Σ T·S), equal in int64 arithmetic.
func (t totals) benefit(tmono int) int64 { return 2 * (int64(tmono)*t.scan - t.scanT) }

// TotalScanCells returns S_chip: the scan cells summed over all modules.
func (s *SOC) TotalScanCells() int64 { return s.sums().scan }

// MaxPatterns returns max_i T_i over all modules.
func (s *SOC) MaxPatterns() int { return s.sums().tmax }

// NormStdevPatterns returns the normalized sample standard deviation of
// the module pattern counts (NormStdev) — the paper's Table 4 column 3
// statistic. Modules without a test of their own (T == 0, e.g. pure
// container levels) are excluded, mirroring the paper's restriction to
// core tests with TamUse=1 and ScanUse=1.
func (s *SOC) NormStdevPatterns() float64 { return NormStdev(s.sums().ts) }

// NormStdev returns the normalized sample standard deviation (stdev/mean,
// with the n−1 divisor) of a set of pattern counts — the statistic the
// paper correlates with TDV reduction (Table 4, column 3). It is 0 for
// fewer than two counts or a zero mean.
func NormStdev(ts []int) float64 {
	if len(ts) < 2 {
		return 0
	}
	var sum float64
	for _, t := range ts {
		sum += float64(t)
	}
	mean := sum / float64(len(ts))
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, t := range ts {
		d := float64(t) - mean
		ss += d * d
	}
	return math.Sqrt(ss/float64(len(ts)-1)) / mean
}

// chipFrameBits returns I_chip + O_chip + 2B_chip + 2S_chip: the per-pattern
// data of the flattened monolithic design, where scan is S_chip.
func (s *SOC) chipFrameBits(scan int64) int64 {
	return s.Top.PortBits() + 2*scan
}

// TDVMono computes Equation 1 with the measured monolithic pattern count.
// It returns 0 if TMono is unset.
func (s *SOC) TDVMono() int64 {
	if s.TMono <= 0 {
		return 0
	}
	return s.chipFrameBits(s.TotalScanCells()) * int64(s.TMono)
}

// TDVMonoOpt computes Equation 3: the optimistic (lower-bound) monolithic
// TDV using max_i T_i for the pattern count.
func (s *SOC) TDVMonoOpt() int64 {
	t := s.sums()
	return s.chipFrameBits(t.scan) * int64(t.tmax)
}

// TDVModular computes Equation 4 over all modules.
func (s *SOC) TDVModular() int64 { return s.sums().modular }

// Penalty computes Equation 7: the per-pattern wrapper isolation data
// summed over all modules.
func (s *SOC) Penalty() int64 { return s.sums().penalty }

// Benefit computes Equation 8 against the given monolithic pattern count:
// Σ (T_mono − T_A) · 2S_A. Every term is guaranteed non-negative when
// tmono ≥ max_i T_i (Equation 2); Benefit panics if the guarantee is
// violated, as that indicates inconsistent inputs.
func (s *SOC) Benefit(tmono int) int64 {
	for _, m := range s.Modules() {
		if m.Patterns > tmono {
			panic(fmt.Sprintf("core: module %s has T=%d > T_mono=%d, violating Eq. 2",
				m.Name, m.Patterns, tmono))
		}
	}
	return s.sums().benefit(tmono)
}

// ChipPortTerm returns (I_chip + O_chip + 2B_chip) · tmono — the correction
// term of the exact Equation 6 identity (see the package comment).
func (s *SOC) ChipPortTerm(tmono int) int64 {
	return s.Top.PortBits() * int64(tmono)
}

// Report is the complete monolithic-vs-modular comparison for one SOC.
type Report struct {
	Name       string
	NumModules int // all modules including the top
	NumCores   int // modules excluding the top (the paper's "Cores" column)
	TMax       int
	TMono      int // 0 when unmeasured
	NormStdev  float64
	SumScan    int64
	TDVMonoOpt int64
	TDVMonoAct int64 // 0 when unmeasured
	TDVModular int64
	Penalty    int64
	Benefit    int64 // against TMono when measured, else against TMax
	ChipPort   int64 // correction term, against the same pattern count
	// ReductionVsOpt is the TDV change of modular vs optimistic monolithic:
	// negative = reduction (paper Table 4 rightmost column).
	ReductionVsOpt float64
	// PenaltyPctVsOpt and BenefitPctVsOpt express penalty/benefit relative
	// to TDVMonoOpt (paper Table 4 columns 5-6).
	PenaltyPctVsOpt float64
	BenefitPctVsOpt float64
	// RatioVsActual is TDV_mono / TDV_modular when TMono is measured
	// (2.87 and 2.22 for the paper's SOC1/SOC2).
	RatioVsActual float64
	// RatioVsOpt is TDV_mono_opt / TDV_modular (the pessimistic ratio;
	// 1.13 and 1.06 in the paper).
	RatioVsOpt float64
	// PessimismFactor is RatioVsActual / RatioVsOpt (2.5x, 2.1x in the
	// paper), zero when TMono is unmeasured.
	PessimismFactor float64
}

// Analyze produces the full comparison report for the SOC, from one walk
// of the module tree.
func (s *SOC) Analyze() Report {
	t := s.sums()
	frame := s.chipFrameBits(t.scan)
	r := Report{
		Name:       s.Name,
		NumModules: t.modules,
		NumCores:   t.modules - 1,
		TMax:       t.tmax,
		TMono:      s.TMono,
		NormStdev:  NormStdev(t.ts),
		SumScan:    t.scan,
		TDVMonoOpt: frame * int64(t.tmax),
		TDVModular: t.modular,
		Penalty:    t.penalty,
	}
	ref := r.TMax
	if s.TMono > 0 {
		ref = s.TMono
		r.TDVMonoAct = frame * int64(s.TMono)
	}
	if ref < t.tmax {
		s.Benefit(ref) // panics, naming the first module that violates Eq. 2
	}
	r.Benefit = t.benefit(ref)
	r.ChipPort = s.ChipPortTerm(ref)
	if r.TDVMonoOpt > 0 {
		r.ReductionVsOpt = float64(r.TDVModular-r.TDVMonoOpt) / float64(r.TDVMonoOpt)
		r.PenaltyPctVsOpt = float64(r.Penalty) / float64(r.TDVMonoOpt)
		r.BenefitPctVsOpt = float64(r.Benefit) / float64(r.TDVMonoOpt)
	}
	if r.TDVModular > 0 {
		r.RatioVsOpt = float64(r.TDVMonoOpt) / float64(r.TDVModular)
		if r.TDVMonoAct > 0 {
			r.RatioVsActual = float64(r.TDVMonoAct) / float64(r.TDVModular)
		}
	}
	if r.RatioVsOpt > 0 && r.RatioVsActual > 0 {
		r.PessimismFactor = r.RatioVsActual / r.RatioVsOpt
	}
	return r
}

// VerifyIdentity checks the exact Equation 6 identity at the given
// monolithic pattern count:
//
//	TDV_modular == TDV_mono(t) + Penalty − Benefit(t) − ChipPortTerm(t)
//
// It returns an error with the two sides if the identity does not hold
// (which would indicate an implementation bug, as the identity is
// algebraic).
func (s *SOC) VerifyIdentity(tmono int) error {
	lhs := s.TDVModular()
	mono := s.chipFrameBits(s.TotalScanCells()) * int64(tmono)
	rhs := mono + s.Penalty() - s.Benefit(tmono) - s.ChipPortTerm(tmono)
	if lhs != rhs {
		return fmt.Errorf("core: Eq.6 identity broken: modular=%d, mono+pen-ben-chip=%d", lhs, rhs)
	}
	return nil
}
