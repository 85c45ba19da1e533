package atpg

import (
	"repro/internal/faultsim"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// Responses computes the expected fault-free responses of the final
// pattern set over the PseudoOutputs frame — the response half of the test
// data volume (the paper's Equation 1/4 count both stimulus and response
// bits). The result is parallel to res.Patterns. Patterns are simulated 64
// at a time on the compiled Program, X bits loaded as 0.
func (r *Result) Responses(c *netlist.Circuit) []logic.Cube {
	out := make([]logic.Cube, len(r.Patterns))
	prog := faultsim.Compile(c)
	words := make([]uint64, c.NumGates())
	ppos := c.PseudoOutputs()
	for off := 0; off < len(r.Patterns); off += 64 {
		end := min(off+64, len(r.Patterns))
		prog.Load(words, r.Patterns[off:end])
		prog.Run(words)
		for k := off; k < end; k++ {
			bit := uint64(1) << uint(k-off)
			resp := make(logic.Cube, len(ppos))
			for i, id := range ppos {
				resp[i] = logic.FromBool(words[id]&bit != 0)
			}
			out[k] = resp
		}
	}
	return out
}

// TesterData is the full tester payload of a test set: per-pattern
// stimulus and expected-response vectors plus the resulting bit counts.
type TesterData struct {
	Stimuli   []logic.Cube // over PseudoInputs
	Responses []logic.Cube // over PseudoOutputs
	// StimulusBits and ResponseBits are the raw vector volumes;
	// TotalBits is their sum — the test data volume of this test set
	// under the naive all-points accounting.
	StimulusBits int64
	ResponseBits int64
	TotalBits    int64
}

// BuildTesterData assembles the tester payload for the result's final
// pattern set.
func (r *Result) BuildTesterData(c *netlist.Circuit) TesterData {
	td := TesterData{
		Stimuli:   r.Patterns,
		Responses: r.Responses(c),
	}
	for _, s := range td.Stimuli {
		td.StimulusBits += int64(len(s))
	}
	for _, q := range td.Responses {
		td.ResponseBits += int64(len(q))
	}
	td.TotalBits = td.StimulusBits + td.ResponseBits
	return td
}
