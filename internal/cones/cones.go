// Package cones implements the paper's Section 3 conceptual analysis: logic
// cones as the unit of ATPG work, per-cone pattern counts and their
// variation, cone overlap, and the analytic worked example of Figures 1
// and 2 (three cones of 20/10/20 flip-flops needing 200/300/400 patterns).
package cones

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/atpg"
	"repro/internal/core"
	"repro/internal/lint"
	"repro/internal/netlist"
	"repro/internal/obs"
)

// Spec describes one logic cone (or fine-grained core) in the analytic
// model: how many scan cells drive it and how many partial test patterns it
// needs. It corresponds to one cone of Figure 1.
type Spec struct {
	Name     string
	Cells    int // scan flip-flops driving the cone
	Patterns int // partial test patterns required for the cone
}

// Model is the analytic test-data model over a set of non-overlapping cones
// (Figure 1(a) / Figure 2(a) of the paper).
type Model struct {
	Cones []Spec
}

// PaperExample returns the exact worked example of the paper's Section 3:
// Cones A, B, C with 20, 10, 20 scan flip-flops and 200, 300, 400 partial
// patterns.
func PaperExample() Model {
	return Model{Cones: []Spec{
		{Name: "Cone A", Cells: 20, Patterns: 200},
		{Name: "Cone B", Cells: 10, Patterns: 300},
		{Name: "Cone C", Cells: 20, Patterns: 400},
	}}
}

// TotalCells returns the total scan cells across all cones.
func (m Model) TotalCells() int {
	n := 0
	for _, c := range m.Cones {
		n += c.Cells
	}
	return n
}

// MaxPatterns returns the maximum per-cone pattern count — the monolithic
// pattern count under perfect compaction of non-overlapping cones.
func (m Model) MaxPatterns() int {
	max := 0
	for _, c := range m.Cones {
		if c.Patterns > max {
			max = c.Patterns
		}
	}
	return max
}

// MonolithicStimulusBits returns the stimulus volume of testing the cones
// monolithically with perfect compaction: every pattern loads every scan
// cell, and MaxPatterns patterns are needed (Figure 1(a): 400 × 50 =
// 20,000 bits).
func (m Model) MonolithicStimulusBits() int64 {
	return int64(m.MaxPatterns()) * int64(m.TotalCells())
}

// ModularStimulusBits returns the stimulus volume of testing each cone as
// its own core: each cone is loaded only with its own patterns
// (Figure 2(a): 600×20 + 300×10 = 15,000 bits).
func (m Model) ModularStimulusBits() int64 {
	var n int64
	for _, c := range m.Cones {
		n += int64(c.Patterns) * int64(c.Cells)
	}
	return n
}

// ModularStimulusBitsWithWrapper adds per-cone wrapper cells: each cone's
// per-pattern load grows by its wrapper cell count (the isolation penalty
// of Figure 2(b)).
func (m Model) ModularStimulusBitsWithWrapper(wrapperCells []int) (int64, error) {
	if len(wrapperCells) != len(m.Cones) {
		return 0, fmt.Errorf("cones: %d wrapper cell counts for %d cones", len(wrapperCells), len(m.Cones))
	}
	var n int64
	for i, c := range m.Cones {
		n += int64(c.Patterns) * int64(c.Cells+wrapperCells[i])
	}
	return n, nil
}

// Reduction returns the fractional stimulus-volume reduction of modular
// over monolithic testing (0.25 for the paper's example).
func (m Model) Reduction() float64 {
	mono := m.MonolithicStimulusBits()
	if mono == 0 {
		return 0
	}
	return 1 - float64(m.ModularStimulusBits())/float64(mono)
}

// Profile is the measured ATPG profile of one extracted cone.
type Profile struct {
	Apex     string // net name of the cone apex
	Width    int    // controllable points feeding the cone
	Size     int    // gates in the cone
	Patterns int    // ATPG pattern count for the isolated cone
	Coverage float64
	// SCOAPMax and SCOAPMean summarize the static testability of the
	// cone's gates — the worst-case stuck-at difficulty per net from
	// internal/lint's SCOAP pass over the whole circuit. A cone whose
	// SCOAPMax dwarfs its peers' predicts the hard tail of the per-cone
	// pattern-count distribution before any ATPG runs.
	SCOAPMax  lint.ScoapV
	SCOAPMean float64
}

// Analysis is the per-cone decomposition of one circuit.
type Analysis struct {
	Circuit  string
	Profiles []Profile
	// OverlapPairs counts cone pairs sharing at least one support line —
	// the structural overlap of Figure 1(b).
	OverlapPairs int
	// TotalPairs is the number of cone pairs considered.
	TotalPairs int
}

// Analyze extracts every cone of the circuit, runs isolated per-cone ATPG
// on each, and reports the pattern-count distribution and the cone overlap
// structure. ATPG uses the supplied options.
func Analyze(c *netlist.Circuit, opts atpg.Options) (*Analysis, error) {
	return AnalyzeContext(context.Background(), c, opts)
}

// AnalyzeContext is Analyze with cancellation at per-cone granularity (the
// per-cone ATPG itself also honours ctx at per-fault granularity, so a
// deadline interrupts even a single slow cone). A cancelled analysis
// returns nil and the error; per-cone profiles are not partial-result
// material the way ATPG patterns are — callers rerun the analysis.
func AnalyzeContext(ctx context.Context, c *netlist.Circuit, opts atpg.Options) (*Analysis, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// A single checkpoint file cannot hold hundreds of per-cone runs; the
	// unit of resumption for cone analysis is the analysis itself.
	opts.Checkpoint = nil
	col := opts.Obs
	span := col.StartSpan("cones.analyze")
	// Cone-shape histograms: exponential buckets 1..4096 cover every
	// realistic cone width/size in the stand-in suite.
	hWidth := col.Histogram("cones.width", obs.ExpBounds(1, 2, 13)...)
	hSize := col.Histogram("cones.size", obs.ExpBounds(1, 2, 13)...)
	hPatterns := col.Histogram("cones.patterns", obs.ExpBounds(1, 2, 13)...)

	cones := c.AllCones()
	scoap := lint.ComputeSCOAP(c)
	a := &Analysis{Circuit: c.Name}
	for i := range cones {
		cone := &cones[i]
		sub, _, err := netlist.SubcircuitFromCone(c, cone)
		if err != nil {
			return nil, fmt.Errorf("cones: extracting cone %s: %w", c.Gate(cone.Apex).Name, err)
		}
		res, err := atpg.GenerateContext(ctx, sub, opts)
		if err != nil {
			return nil, fmt.Errorf("cones: cone %s: %w", c.Gate(cone.Apex).Name, err)
		}
		p := Profile{
			Apex:     c.Gate(cone.Apex).Name,
			Width:    cone.Width(),
			Size:     cone.Size(),
			Patterns: res.PatternCount(),
			Coverage: res.Coverage,
		}
		p.SCOAPMax, p.SCOAPMean = coneSCOAP(scoap, cone)
		a.Profiles = append(a.Profiles, p)
		hWidth.ObserveInt(p.Width)
		hSize.ObserveInt(p.Size)
		hPatterns.ObserveInt(p.Patterns)
		if col.Tracing() {
			col.Emit("cone.profile",
				obs.F("circuit", c.Name),
				obs.F("apex", p.Apex),
				obs.F("width", p.Width),
				obs.F("size", p.Size),
				obs.F("patterns", p.Patterns),
				obs.F("coverage", p.Coverage),
				obs.F("scoap_max", p.SCOAPMax.String()),
				obs.F("scoap_mean", p.SCOAPMean))
		}
	}
	for i := range cones {
		for j := i + 1; j < len(cones); j++ {
			a.TotalPairs++
			if netlist.SupportOverlap(&cones[i], &cones[j]) > 0 {
				a.OverlapPairs++
			}
		}
	}
	col.Counter("cones.analyzed").Add(int64(len(a.Profiles)))
	if col.Tracing() {
		col.Emit("cones.summary",
			obs.F("circuit", c.Name),
			obs.F("cones", len(a.Profiles)),
			obs.F("max_patterns", a.MaxPatterns()),
			obs.F("norm_stdev", core.NormStdev(a.PatternCounts())),
			obs.F("overlap_pairs", a.OverlapPairs),
			obs.F("total_pairs", a.TotalPairs))
	}
	span.End()
	return a, nil
}

// coneSCOAP aggregates the whole-circuit SCOAP measures over a cone's
// gates: the maximum and mean worst-case stuck-at difficulty. Saturated
// nets (unobservable or uncontrollable in the full circuit) keep their
// sentinel in the max but are excluded from the mean, so one dangling net
// cannot drown the statistic.
func coneSCOAP(s *lint.SCOAP, cn *netlist.Cone) (lint.ScoapV, float64) {
	var worst lint.ScoapV
	var sum float64
	n := 0
	for _, id := range cn.Gates {
		d0, d1 := s.Difficulty(id, 0), s.Difficulty(id, 1)
		w := d0
		if d1 > w {
			w = d1
		}
		if w > worst {
			worst = w
		}
		if w < lint.ScoapInf {
			sum += float64(w)
			n++
		}
	}
	if n == 0 {
		return worst, 0
	}
	return worst, sum / float64(n)
}

// PatternCounts returns the per-cone pattern counts in profile order.
func (a *Analysis) PatternCounts() []int {
	ts := make([]int, len(a.Profiles))
	for i, p := range a.Profiles {
		ts[i] = p.Patterns
	}
	return ts
}

// MaxPatterns returns the largest per-cone pattern count.
func (a *Analysis) MaxPatterns() int {
	max := 0
	for _, p := range a.Profiles {
		if p.Patterns > max {
			max = p.Patterns
		}
	}
	return max
}

// String renders a short summary of the analysis.
func (a *Analysis) String() string {
	ts := a.PatternCounts()
	sort.Ints(ts)
	min, max := 0, 0
	if len(ts) > 0 {
		min, max = ts[0], ts[len(ts)-1]
	}
	return fmt.Sprintf("%s: %d cones, patterns %d..%d (norm stdev %.2f), %d/%d overlapping pairs",
		a.Circuit, len(a.Profiles), min, max, core.NormStdev(ts), a.OverlapPairs, a.TotalPairs)
}
