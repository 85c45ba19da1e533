package sim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bench89"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// evalGateWord evaluates gate type t on 64 two-valued lanes at once from
// the netlist gate table alone: the base function over the fanin words,
// then the output inversion. It is the word-wide reading of the table that
// the compiled simulator, the CNF encoder and fault collapsing share.
func evalGateWord(t netlist.GateType, in []uint64) uint64 {
	var w uint64
	switch t.Func() {
	case netlist.FuncBuf:
		w = in[0]
	case netlist.FuncAnd:
		w = ^uint64(0)
		for _, x := range in {
			w &= x
		}
	case netlist.FuncOr:
		for _, x := range in {
			w |= x
		}
	case netlist.FuncXor:
		for _, x := range in {
			w ^= x
		}
	}
	if t.Inverted() {
		w = ^w
	}
	return w
}

// TestEvalGateWordMatchesEvalGate checks that the gate table, read word-wide,
// agrees with EvalGate on every gate type over random two-valued inputs,
// and that noise on the other lanes never reaches the checked one.
func TestEvalGateWordMatchesEvalGate(t *testing.T) {
	types := []netlist.GateType{
		netlist.Buf, netlist.Not, netlist.And, netlist.Nand,
		netlist.Or, netlist.Nor, netlist.Xor, netlist.Xnor,
		netlist.Const0, netlist.Const1,
	}
	if err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tt := types[r.Intn(len(types))]
		nf := tt.MinFanin()
		if tt.MaxFanin() < 0 {
			nf += r.Intn(3)
		}
		vals := make([]logic.V, nf)
		words := make([]uint64, nf)
		// Pick a random bit position and fill both representations.
		bit := uint(r.Intn(64))
		for i := range vals {
			b := r.Intn(2) == 1
			vals[i] = logic.FromBool(b)
			if b {
				words[i] = 1 << bit
			}
			// Noise on other bits must not influence the checked bit.
			words[i] |= r.Uint64() &^ (1 << bit)
		}
		want := EvalGate(tt, vals) == logic.One
		got := evalGateWord(tt, words)&(1<<bit) != 0
		return want == got
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestSimulatorRefinementMonotone: refining X inputs to binary values never
// flips an already-binary internal signal — the monotonicity PODEM's
// search-space pruning relies on.
func TestSimulatorRefinementMonotone(t *testing.T) {
	prof, _ := bench89.ProfileByName("s713")
	c := bench89.MustGenerate(prof)
	s := New(c)
	r := rand.New(rand.NewSource(5))
	width := s.NumPseudoInputs()

	for trial := 0; trial < 50; trial++ {
		partial := make(logic.Cube, width)
		for i := range partial {
			switch r.Intn(3) {
			case 0:
				partial[i] = logic.Zero
			case 1:
				partial[i] = logic.One
			default:
				partial[i] = logic.X
			}
		}
		s.Simulate(partial)
		before := make([]logic.V, c.NumGates())
		for id := netlist.GateID(0); int(id) < c.NumGates(); id++ {
			before[id] = s.Value(id)
		}
		// Refine all X bits.
		full := partial.Fill(func(int) logic.V { return logic.FromBool(r.Intn(2) == 1) })
		s.Simulate(full)
		for id := netlist.GateID(0); int(id) < c.NumGates(); id++ {
			if before[id].Binary() && s.Value(id) != before[id] {
				t.Fatalf("trial %d: gate %s flipped from %v to %v under refinement",
					trial, c.Gate(id).Name, before[id], s.Value(id))
			}
		}
	}
}
