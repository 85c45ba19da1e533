package atpg

import (
	"encoding/json"

	"repro/internal/faults"
	"repro/internal/netlist"
)

// OptionsHash fingerprints a generation request: the circuit's canonical
// structure, the fault-list length, and every option that steers the
// search. It is the same hash the checkpoint layer uses to refuse resuming
// under changed inputs, exported so callers that cache or deduplicate ATPG
// work (the content-addressed result store behind cmd/socd) key results by
// exactly the properties that determine them. Options.Workers is excluded:
// results are bit-identical for every worker count.
func OptionsHash(c *netlist.Circuit, nFaults int, opts Options) string {
	return optionsHash(c, nFaults, opts)
}

// ResultSummary is the serialized form of a Result: the verdict counts,
// coverage figures and the final pattern set as 0/1 strings. It is the
// artifact the serving layer stores and returns — deliberately a pure
// value type whose JSON encoding is byte-deterministic for a given Result,
// so cache hits can be compared bit-for-bit against cold runs.
type ResultSummary struct {
	Circuit           string   `json:"circuit"`
	Faults            int      `json:"faults"`
	Detected          int      `json:"detected"`
	Redundant         int      `json:"redundant"`
	Aborted           int      `json:"aborted"`
	ProvedRedundant   int      `json:"proved_redundant,omitempty"`
	Incomplete        bool     `json:"incomplete,omitempty"`
	Coverage          float64  `json:"coverage"`
	EffectiveCoverage float64  `json:"effective_coverage"`
	PatternCount      int      `json:"pattern_count"`
	CubeCount         int      `json:"cube_count"`
	Patterns          []string `json:"patterns"`
}

// Summary converts the Result into its serialized form, naming the
// circuit it was generated for.
func (r *Result) Summary(circuit string) ResultSummary {
	s := ResultSummary{
		Circuit:           circuit,
		Faults:            r.NumFaults,
		Detected:          r.NumDetected,
		Redundant:         r.NumRedundant,
		Aborted:           r.NumAborted,
		ProvedRedundant:   r.NumProvedRedundant,
		Incomplete:        r.Incomplete,
		Coverage:          r.Coverage,
		EffectiveCoverage: r.EffectiveCoverage,
		PatternCount:      r.PatternCount(),
		CubeCount:         len(r.Cubes),
		Patterns:          make([]string, len(r.Patterns)),
	}
	for i, p := range r.Patterns {
		s.Patterns[i] = p.String()
	}
	return s
}

// EncodeSummary is the one canonical byte encoding of a summary (compact
// JSON plus a trailing newline) shared by everything that persists or
// serves it, so "the same result" always means "the same bytes".
func EncodeSummary(s ResultSummary) ([]byte, error) {
	b, err := json.Marshal(s)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// NumFaultsFor returns the collapsed fault-universe size OptionsHash
// expects for whole-circuit generation, sparing callers a second
// fault-collapse pass when they only need the key.
func NumFaultsFor(c *netlist.Circuit) int {
	return len(faults.CollapsedUniverse(c))
}
