package core

import (
	"fmt"
	"math"
	"math/bits"
)

// ProblemKind classifies a Problem. The order is Validate's precedence:
// it refuses a profile with its first problem of the lowest fatal kind.
type ProblemKind uint8

// Problem kinds, one per condition a profile must meet before the
// equations are evaluated on it.
const (
	NegativeCount ProblemKind = iota // a negative port, scan-cell or pattern count, or T_mono
	Eq2                              // a measured T_mono below T_max
	Overflow                         // a term or sum of Eq. 1 and 3–8 leaves int64
	ChainSum                         // declared scan-chain lengths that do not sum to the scan cells
	IdleScan                         // scan cells under t=0, never exercised
	EmptyTest                        // t>0 on a module with no ports, scan cells or children
)

// Fatal reports whether Validate refuses a profile with a problem of kind
// k. IdleScan and EmptyTest leave every equation computable.
func (k ProblemKind) Fatal() bool { return k < IdleScan }

// Problem is one defect Check found in a profile.
type Problem struct {
	Kind   ProblemKind
	Module string // the module concerned, or "" for T_mono itself
	Msg    string
}

// Error returns the message, as Validate reports it.
func (p Problem) Error() string { return p.Msg }

func problem(k ProblemKind, module, format string, args ...any) Problem {
	return Problem{k, module, fmt.Sprintf(format, args...)}
}

// Validate checks the numbers the equations read: no count is negative,
// a measured T_mono satisfies Equation 2 (T_mono ≥ max_i T_i), the
// precondition Benefit panics on, every term and sum of Equations 1, 3,
// 4, 5, 7 and 8 fits in int64, so no volume wraps, and declared scan
// chains sum to the scan cells. It returns the fatal problem Check finds
// first, of the lowest kind. Entry points that take user numbers call it
// before any analysis.
func (s *SOC) Validate() error {
	ps := s.Check()
	first := -1
	for i, p := range ps {
		if p.Kind.Fatal() && (first < 0 || p.Kind < ps[first].Kind) {
			first = i
		}
	}
	if first < 0 {
		return nil
	}
	return ps[first]
}

// Check returns every problem of the profile: those CheckModules finds
// over its modules in pre-order, then the first term or sum that leaves
// int64. A profile with a negative count draws no overflow problem, since
// the magnitude walk reads non-negative counts.
func (s *SOC) Check() []Problem {
	mods := s.Modules()
	ps, tmax := checkModules(s.TMono, mods)
	for _, p := range ps {
		if p.Kind == NegativeCount {
			return ps
		}
	}
	if p, over := s.magnitude(mods, max(s.TMono, tmax)); over {
		ps = append(ps, p)
	}
	return ps
}

// CheckModules returns the problems of a list of modules that need no
// tree over them: a negative T_mono, then each module's negative count,
// chain-sum mismatch, idle scan cells and empty test in list order, then
// the Eq. 2 violation of the first module holding the largest pattern
// count. It is what can be checked of a description whose hierarchy did
// not resolve.
func CheckModules(tmono int, mods []*Module) []Problem {
	ps, _ := checkModules(tmono, mods)
	return ps
}

// checkModules is CheckModules, also returning max_i T_i over mods.
func checkModules(tmono int, mods []*Module) ([]Problem, int) {
	var ps []Problem
	if tmono < 0 {
		ps = append(ps, problem(NegativeCount, "", "T_mono=%d is negative", tmono))
	}
	var hot *Module
	for _, m := range mods {
		p := m.Params
		if min(p.Inputs, p.Outputs, p.Bidirs, p.ScanCells, p.Patterns) < 0 {
			ps = append(ps, problem(NegativeCount, m.Name, "module %s has a negative count (i=%d o=%d b=%d s=%d t=%d)",
				m.Name, p.Inputs, p.Outputs, p.Bidirs, p.ScanCells, p.Patterns))
		}
		if len(m.ScanChains) > 0 && m.ScanChainSum() != p.ScanCells {
			ps = append(ps, problem(ChainSum, m.Name, "module %s declares scan chains summing to %d but s=%d",
				m.Name, m.ScanChainSum(), p.ScanCells))
		}
		if p.ScanCells > 0 && p.Patterns == 0 {
			ps = append(ps, problem(IdleScan, m.Name, "module %q has %d scan cells but t=0: the cells are never exercised",
				m.Name, p.ScanCells))
		}
		if p.Patterns > 0 && m.PortBits() == 0 && p.ScanCells == 0 && len(m.Children) == 0 {
			ps = append(ps, problem(EmptyTest, m.Name, "module %q has t=%d but no ports, scan cells or children: each pattern tests zero data",
				m.Name, p.Patterns))
		}
		if hot == nil || p.Patterns > hot.Patterns {
			hot = m
		}
	}
	if hot == nil {
		return ps, 0
	}
	if tmono > 0 && tmono < hot.Patterns {
		ps = append(ps, problem(Eq2, hot.Name, "T_mono=%d is below T_max=%d, violating Eq. 2", tmono, hot.Patterns))
	}
	return ps, hot.Patterns
}

// magnitude finds the first term or running sum that leaves int64 and
// names its module and equation: per module Eq. 5's ISOCOST, then the
// Eq. 4 and 8 sums with its term, then the chip's Eq. 1/3 frame bits
// times ref = max(T_mono, T_max), then TDV_mono + TDV_penalty, the
// largest partial sum of the Eq. 6 identity. Past it the sums are
// wrapped, so it is the one overflow the walk can name. Eq. 7's terms and
// sum are at most Eq. 4's. Counts are non-negative and ref ≥ T_max, so
// every Eq. 8 factor ref − T is too.
func (s *SOC) magnitude(mods []*Module, ref int) (Problem, bool) {
	var over bool
	mul := func(a, b int64) int64 {
		hi, lo := bits.Mul64(uint64(a), uint64(b))
		over = over || hi != 0 || lo > math.MaxInt64
		return int64(lo)
	}
	add := func(a, b int64) int64 {
		sum, _ := bits.Add64(uint64(a), uint64(b), 0)
		over = over || sum > math.MaxInt64
		return int64(sum)
	}
	ports := func(p Params) int64 { return add(add(int64(p.Inputs), int64(p.Outputs)), mul(2, int64(p.Bidirs))) }
	fail := func(m *Module, eq string) (Problem, bool) {
		return problem(Overflow, m.Name, "module %s: %s overflows int64", m.Name, eq), true
	}
	var scan2, modular, penalty, benefit int64
	for _, m := range mods {
		var iso int64
		if !m.PortsTesterAccessible {
			iso = ports(m.Params)
		}
		for _, ch := range m.Children {
			iso = add(iso, ports(ch.Params))
		}
		if over {
			return fail(m, "Eq. 5 ISOCOST")
		}
		t, s2 := int64(m.Patterns), mul(2, int64(m.ScanCells))
		modular = add(modular, mul(t, add(s2, iso)))
		penalty += t * iso // at most the Eq. 4 term, so it fits when that does
		if over {
			return fail(m, "Eq. 4 TDV_modular")
		}
		if benefit = add(benefit, mul(int64(ref)-t, s2)); over {
			return fail(m, "Eq. 8 TDV_benefit")
		}
		if scan2 = add(scan2, s2); over {
			return fail(m, "Eq. 1/3 chip scan bits 2·S_chip")
		}
	}
	if mono := mul(add(ports(s.Top.Params), scan2), int64(ref)); over {
		return fail(s.Top, "Eq. 1/3 TDV_mono")
	} else if add(mono, penalty); over {
		return fail(s.Top, "Eq. 6 TDV_mono + TDV_penalty")
	}
	return Problem{}, false
}
