package faultsim

import (
	"math/rand"
	"testing"

	"repro/internal/faults"
	"repro/internal/logic"
)

// TestSerialDetectsMatchesFailingOutputs checks the early-exit SerialDetects
// against the full SerialFailingOutputs scan: a pattern detects a fault
// exactly when some pseudo output fails. Patterns carry X bits too, which
// both read as 0.
func TestSerialDetectsMatchesFailingOutputs(t *testing.T) {
	circuits := oracleCircuits(t)
	circuits["s713"] = standinCircuit(t, "s713")
	circuits["s953"] = standinCircuit(t, "s953")
	r := rand.New(rand.NewSource(13))
	for name, c := range circuits {
		width := len(c.PseudoInputs())
		for k := 0; k < 6; k++ {
			p := make(logic.Cube, width)
			for j := range p {
				p[j] = logic.V(r.Intn(3)) // Zero, One or X
			}
			for _, f := range faults.Universe(c) {
				if got, want := SerialDetects(c, p, f), len(SerialFailingOutputs(c, p, f)) > 0; got != want {
					t.Fatalf("%s: fault %s pattern %v: SerialDetects %v, failing outputs say %v",
						name, f.String(c), p, got, want)
				}
			}
		}
	}
}
