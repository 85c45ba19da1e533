// Package itc02 provides the ITC'02 SOC Test Benchmarks material the paper's
// Section 5.2 evaluates: the complete p34392 module data (Table 3), the
// published Table 4 aggregates for all ten benchmark SOCs, a textual SOC
// description format, and a calibrated profile synthesizer that reconstructs
// per-core parameter sets for the nine SOCs whose full module data the paper
// does not print.
//
// Data provenance: the original ITC'02 .soc files are external benchmark
// data that this offline reproduction cannot ship. The p34392 profile is
// transcribed from the paper's own Table 3. For the other nine SOCs only
// the aggregates of Table 4 are published; Synthesize rebuilds per-core
// profiles that reproduce those aggregates exactly through the same
// Equations 3-8 code path (see DESIGN.md, substitution table).
//
// Known erratum reproduced here: as printed, Table 3's Core 10 row
// (I=129) is inconsistent with its own TDV column and with Core 0's row;
// every row and the SOC total check out exactly with I=29 and with Core 0
// embedding cores {1, 2, 10, 18} (matching Figure 3). This package embeds
// the corrected value and records the printed one.
package itc02

import (
	"strconv"

	"repro/internal/core"
)

// p34392Row is one row of the paper's Table 3.
type p34392Row struct {
	index         int
	embeds        []int
	i, o, b, s, t int
	// tdv is the printed rightmost column, kept for verification.
	tdv int64
}

// P34392PrintedCore10Inputs is the input count of core 10 as printed in
// Table 3; the embedded profile uses 29 (see the package comment).
const P34392PrintedCore10Inputs = 129

// p34392Rows transcribes Table 3 (with the core-10 correction).
var p34392Rows = []p34392Row{
	{0, []int{1, 2, 10, 18}, 32, 27, 114, 0, 27, 39069},
	{1, nil, 15, 94, 0, 806, 210, 361410},
	{2, []int{3, 4, 5, 6, 7, 8, 9}, 165, 263, 0, 8856, 514, 9521850},
	{3, nil, 37, 25, 0, 0, 3108, 192696},
	{4, nil, 38, 25, 0, 0, 6180, 389340},
	{5, nil, 62, 25, 0, 0, 12336, 1073232},
	{6, nil, 11, 8, 0, 0, 1965, 37335},
	{7, nil, 9, 8, 0, 0, 512, 8704},
	{8, nil, 46, 17, 0, 0, 9930, 625590},
	{9, nil, 41, 33, 0, 0, 228, 16872},
	{10, []int{11, 12, 13, 14, 15, 16, 17}, 29, 207, 0, 4827, 454, 4559068},
	{11, nil, 23, 8, 0, 0, 9285, 287835},
	{12, nil, 7, 4, 0, 0, 173, 1903},
	{13, nil, 12, 16, 0, 0, 2560, 71680},
	{14, nil, 11, 8, 0, 0, 432, 8208},
	{15, nil, 22, 8, 0, 0, 4440, 133200},
	{16, nil, 7, 7, 0, 0, 128, 1792},
	{17, nil, 15, 4, 0, 0, 786, 14934},
	{18, []int{19}, 175, 212, 0, 6555, 745, 10120080},
	{19, nil, 62, 25, 0, 0, 12336, 1073232},
}

// P34392ModularTDV is the SOC-level modular test data volume of Table 3.
const P34392ModularTDV int64 = 28538030

// P34392 builds the hierarchical p34392 SOC profile from the embedded
// Table 3 data. The returned SOC has no measured monolithic pattern count
// (the paper could not run ATPG on the ITC'02 SOCs either).
func P34392() *core.SOC {
	mods := make([]*core.Module, len(p34392Rows))
	for i, r := range p34392Rows {
		mods[i] = &core.Module{
			Name: moduleName(r.index),
			Params: core.Params{
				Inputs:    r.i,
				Outputs:   r.o,
				Bidirs:    r.b,
				ScanCells: r.s,
				Patterns:  r.t,
			},
		}
	}
	for i, r := range p34392Rows {
		for _, ch := range r.embeds {
			mods[i].Children = append(mods[i].Children, mods[ch])
		}
	}
	return &core.SOC{Name: "p34392", Top: mods[0]}
}

// P34392PerCoreTDV returns the printed Table 3 TDV per module index, for
// verification against the computed Equation 4 values.
func P34392PerCoreTDV() map[string]int64 {
	out := make(map[string]int64, len(p34392Rows))
	for _, r := range p34392Rows {
		out[moduleName(r.index)] = r.tdv
	}
	return out
}

func moduleName(idx int) string {
	if idx == 0 {
		return "Core0(top)"
	}
	return "Core" + strconv.Itoa(idx)
}

// PublishedRow is one row of the paper's Table 4.
type PublishedRow struct {
	Name       string
	Cores      int     // number of cores, excluding the top level
	NormStdev  float64 // normalized (sample) stdev of module pattern counts
	TDVMonoOpt int64   // Equation 3
	Penalty    int64   // printed TDV_penalty
	Benefit    int64   // printed TDV_benefit
	TDVModular int64   // Equation 4 / 6
}

// PublishedTable4 returns the ten rows of the paper's Table 4, verbatim.
func PublishedTable4() []PublishedRow {
	return []PublishedRow{
		{"d695", 10, 0.70, 2987712, 164894, 1935953, 1216653},
		{"h953", 8, 0.92, 3176074, 147298, 1121480, 2201892},
		{"f2126", 4, 0.68, 11812624, 400418, 1982992, 10230050},
		{"g1023", 14, 1.05, 828120, 233207, 479124, 582203},
		{"g12710", 4, 0.18, 34140348, 16223802, 3036376, 47327774},
		{"p22810", 28, 2.72, 612736956, 2657286, 601177672, 13616570},
		{"p34392", 19, 1.29, 522738000, 4991278, 499191248, 28538030},
		{"p93791", 32, 1.79, 1101977712, 5451526, 1060719663, 46709575},
		{"t512505", 31, 0.93, 459196200, 4293188, 136793570, 326695818},
		{"a586710", 7, 1.95, 144302301808, 728526992, 144080555088, 950273712},
	}
}

// ConsistentModular returns the TDV_modular implied by the row's own
// opt + penalty − benefit identity.
//
// Nine of the ten printed rows satisfy the identity exactly. The p22810 row
// does not: 612,736,956 + 2,657,286 − 601,177,672 = 14,216,570, while the
// printed absolute is 13,616,570 (600,000 less). The printed percentage
// column (−97.7%) matches 14,216,570 — (612.7M−14.2M)/612.7M = 97.7% —
// and not 13,616,570 (which gives −97.8%), so the absolute value is the
// typo. Synthesize calibrates against the identity-consistent value.
func (r PublishedRow) ConsistentModular() int64 {
	return r.TDVMonoOpt + r.Penalty - r.Benefit
}

// PublishedRowByName looks up a Table 4 row.
func PublishedRowByName(name string) (PublishedRow, bool) {
	for _, r := range PublishedTable4() {
		if r.Name == name {
			return r, true
		}
	}
	return PublishedRow{}, false
}

// G12710Patterns are the per-core pattern counts of g12710 that the paper
// quotes in Section 5.2 ("852, 1314, 1223, 1223"); Synthesize uses them
// verbatim for that SOC.
var G12710Patterns = []int{852, 1314, 1223, 1223}
