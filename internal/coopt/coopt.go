// Package coopt is the wrapper/TAM co-optimization and test-scheduling
// subsystem: it turns an SOC profile into a concrete test schedule on a
// fixed-width test access mechanism, the layer the source paper deliberately
// excludes ("we exclude the impact of the scan chain organization or the
// test access mechanism from our analysis", Section 3) but that its related
// work builds entirely on — rectangle bin packing for wrapper/TAM
// co-optimization (arXiv 1008.3320) and its diagonal-length-heuristic,
// power-constrained extension (arXiv 1008.4446 / 1008.4448).
//
// The pipeline has two stages:
//
//  1. Wrapper design (staircase.go): for every core and every candidate
//     wrapper width w, Design_wrapper-style balanced scan-chain
//     partitioning (tam.DesignWrapper for cores with declared chains, its
//     exact splittable-scan fast path otherwise) yields the test time at
//     that width; pruning the non-improving widths leaves the Pareto
//     staircase of (width, time) configurations per core.
//  2. Scheduling (pack.go): every core test is a width × time rectangle
//     (any of its staircase configurations); the rectangles are packed
//     onto the W TAM lines by the diagonal-length heuristic of 1008.4446,
//     under an optional power budget (the session-based power model of
//     internal/power) and optional precedence edges.
//
// The result (schedule.go) carries the total test time, the per-core TAM
// assignment, the idle-bit overhead decomposed into wrapper idle and TAM
// idle (the quantities whose exclusion the paper acknowledges), and the
// expected-time-optimal abort-on-fail ordering via internal/sched.
// Everything is deterministic: no wall clock, no randomness, total
// tie-break orders everywhere, so the same SOC and options produce
// byte-identical schedules across runs, worker counts and daemons.
package coopt

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/tam"
)

// MaxTAMWidth is the widest TAM the sweeps and the serving layer accept.
// It is also the width ceiling behind lint rule SOC013: a hard core
// declaring more pre-stitched scan chains than this can never connect all
// of them, whatever wrapper configuration is chosen.
const MaxTAMWidth = 64

// Options steer one co-optimization run. The zero value is not valid: a
// positive TAMWidth is required.
type Options struct {
	// TAMWidth is the number of TAM lines available (1..MaxTAMWidth).
	TAMWidth int
	// PowerBudget caps the summed power of concurrently tested cores;
	// 0 disables the constraint. Units follow the per-core power proxy
	// (see corePower).
	PowerBudget int64
	// Precedence lists (before, after) core-name pairs: the "after" core's
	// test may not start before the "before" core's test finishes.
	Precedence [][2]string
}

// OptionsHash fingerprints every option that steers the schedule, in the
// style of atpg.OptionsHash: the serving layer combines it with the
// canonical SOC text to form the content address, so a changed width or
// budget never aliases a cached artifact.
func (o Options) OptionsHash() string {
	h := sha256.New()
	fmt.Fprintf(h, "coopt|v1|tam=%d|power=%d", o.TAMWidth, o.PowerBudget)
	for _, p := range o.Precedence {
		fmt.Fprintf(h, "|prec=%s<%s", p[0], p[1])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Core is one schedulable core test: its tam-level test resources, the
// Pareto staircase of wrapper configurations, and its power proxy.
type Core struct {
	Name string
	Test tam.CoreTest
	// ScanCells is the module's internal scan-cell total. It is carried
	// separately from Test.Chains because synthesized ITC'02 profiles
	// publish only the total (Chains stays empty and the splittable fast
	// path partitions the cells), while Test.ScanCells() counts declared
	// chains only.
	ScanCells int
	Configs   []Config // ascending width, strictly decreasing time
	Power     int64
}

// UsefulPerPattern returns the core's per-pattern useful test data — the
// paper's Equation 4 frame: 2 bits per scan cell plus I + O + 2B
// wrapper-cell port bits.
func (c Core) UsefulPerPattern() int64 {
	return 2*int64(c.ScanCells) + int64(c.Test.Inputs) + int64(c.Test.Outputs) + 2*int64(c.Test.Bidirs)
}

// Useful returns the core's total useful test data in bits.
func (c Core) Useful() int64 {
	return c.UsefulPerPattern() * int64(c.Test.Patterns)
}

// corePower is the deterministic per-core power proxy (the ITC'02
// profiles publish no test vectors to measure shift power on): every scan
// cell and wrapper cell toggles during shift, so the peak shift power
// scales with 2S + I + O + 2B — the same frame the TDV equations count.
func corePower(c Core) int64 { return c.UsefulPerPattern() }

// BuildCores derives the schedulable cores of an SOC: every module with a
// non-zero pattern count becomes a rectangle source with its wrapper
// staircase computed up to maxW. Modules without a test of their own
// (pure containers, T = 0) are skipped — there is nothing to schedule.
// The result is ordered by module pre-order, and each staircase is
// deterministic, so BuildCores is a pure function of the profile.
func BuildCores(s *core.SOC, maxW int) ([]Core, error) {
	if maxW < 1 || maxW > MaxTAMWidth {
		return nil, fmt.Errorf("coopt: TAM width %d outside 1..%d", maxW, MaxTAMWidth)
	}
	var cores []Core
	for _, m := range s.Modules() {
		if m.Patterns == 0 {
			continue
		}
		t := tam.CoreTest{
			Name:     m.Name,
			Inputs:   m.Inputs,
			Outputs:  m.Outputs,
			Bidirs:   m.Bidirs,
			Chains:   append([]int(nil), m.ScanChains...),
			Patterns: m.Patterns,
		}
		if len(m.ScanChains) > 0 && m.ScanChainSum() != m.ScanCells {
			return nil, fmt.Errorf("coopt: module %s declares chains summing to %d but s=%d (lint SOC008)",
				m.Name, m.ScanChainSum(), m.ScanCells)
		}
		cfgs, err := Staircase(t, m.ScanCells, maxW)
		if err != nil {
			return nil, fmt.Errorf("coopt: module %s: %w", m.Name, err)
		}
		c := Core{
			Name:      m.Name,
			Test:      t,
			ScanCells: m.ScanCells,
			Configs:   cfgs,
		}
		c.Power = corePower(c)
		cores = append(cores, c)
	}
	if len(cores) == 0 {
		return nil, fmt.Errorf("coopt: SOC %s has no module with a test (every T is 0)", s.Name)
	}
	return cores, nil
}

// Optimize runs the full co-optimization for one TAM width and returns
// the deterministic schedule.
func Optimize(s *core.SOC, opts Options) (*Schedule, error) {
	cores, err := BuildCores(s, opts.TAMWidth)
	if err != nil {
		return nil, err
	}
	pk, err := Pack(cores, opts.TAMWidth, opts.PowerBudget, opts.Precedence)
	if err != nil {
		return nil, err
	}
	return buildSchedule(s.Name, cores, pk, opts)
}

// FrontierPoint is one TAM width's outcome in a width sweep: the
// TAM-width vs test-time vs TDV trade-off the Pareto table reports.
type FrontierPoint struct {
	TAMWidth    int     `json:"tam_width"`
	TotalTime   int64   `json:"total_time"`
	LowerBound  int64   `json:"lower_bound"`
	LBRatio     float64 `json:"lb_ratio"`
	TDVBits     int64   `json:"tdv_bits"`
	UsefulBits  int64   `json:"useful_bits"`
	IdleBits    int64   `json:"idle_bits"`
	Utilization float64 `json:"utilization"`
	// Pareto marks the width as frontier-optimal: no narrower TAM in the
	// sweep achieves an equal or better test time.
	Pareto bool `json:"pareto"`
}

// Sweep packs the SOC at every width in widths (each 1..MaxTAMWidth),
// fanning the independent packings across workers via internal/par. The
// staircases are built once at the widest requested width and shared
// read-only, so the per-width work is exactly one packing. Results are
// index-addressed per worker and merged serially — the repo's
// workers-never-merge discipline — so the output is bit-identical for
// every worker count.
func Sweep(s *core.SOC, widths []int, workers int, budget int64) ([]FrontierPoint, error) {
	if len(widths) == 0 {
		return nil, fmt.Errorf("coopt: empty width sweep")
	}
	maxW := 0
	for _, w := range widths {
		if w > maxW {
			maxW = w
		}
	}
	cores, err := BuildCores(s, maxW)
	if err != nil {
		return nil, err
	}
	points := make([]FrontierPoint, len(widths))
	_, err = par.ForEach(nil, len(widths), workers, func(i int) error {
		w := widths[i]
		sub := narrowCores(cores, w)
		pk, perr := Pack(sub, w, budget, nil)
		if perr != nil {
			return fmt.Errorf("width %d: %w", w, perr)
		}
		points[i] = FrontierPoint{
			TAMWidth:    w,
			TotalTime:   pk.TotalTime,
			LowerBound:  pk.LowerBound,
			LBRatio:     round4(ratio(pk.TotalTime, pk.LowerBound)),
			TDVBits:     pk.TDVBits,
			UsefulBits:  pk.UsefulBits,
			IdleBits:    pk.TDVBits - pk.UsefulBits,
			Utilization: round4(ratio(pk.UsefulBits, pk.TDVBits)),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	markPareto(points)
	return points, nil
}

// narrowCores restricts every core's staircase to configurations fitting
// a TAM of width w. Each staircase starts at width 1 (any chain set
// concatenates onto a single wrapper chain), so the result is never empty.
func narrowCores(cores []Core, w int) []Core {
	out := make([]Core, len(cores))
	for i, c := range cores {
		n := sort.Search(len(c.Configs), func(k int) bool { return c.Configs[k].Width > w })
		out[i] = c
		out[i].Configs = c.Configs[:n]
	}
	return out
}

// markPareto flags the frontier: sweep points whose test time strictly
// beats every narrower (cheaper) TAM in the sweep.
func markPareto(points []FrontierPoint) {
	idx := make([]int, len(points))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return points[idx[a]].TAMWidth < points[idx[b]].TAMWidth })
	best := int64(-1)
	for _, i := range idx {
		if best < 0 || points[i].TotalTime < best {
			points[i].Pareto = true
			best = points[i].TotalTime
		}
	}
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// round4 keeps reported ratios at a fixed four decimals so the JSON
// artifact is byte-stable across platforms.
func round4(v float64) float64 { return float64(int64(v*10000+0.5)) / 10000 }
