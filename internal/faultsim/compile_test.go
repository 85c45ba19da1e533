package faultsim

import (
	"math/rand"
	"testing"

	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// TestCompiledOpsMatchEvalGateWord checks each compiled opcode word-wide:
// evalWords on 64 random lanes of fanin words must match sim.EvalGate on
// every lane, for every gate type and for arities beyond
// TestGateSemanticsAgree's exhaustive range.
func TestCompiledOpsMatchEvalGateWord(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	cases := []struct {
		typ   netlist.GateType
		arity int
	}{
		{netlist.Buf, 1}, {netlist.Not, 1},
		{netlist.And, 2}, {netlist.Nand, 2}, {netlist.Or, 2}, {netlist.Nor, 2},
		{netlist.Xor, 2}, {netlist.Xnor, 2},
		{netlist.And, 3}, {netlist.Nand, 4}, {netlist.Or, 5}, {netlist.Nor, 3},
		{netlist.Xor, 4}, {netlist.Xnor, 3},
		{netlist.Const0, 0}, {netlist.Const1, 0},
	}
	for _, tc := range cases {
		c := netlist.New("ops")
		fanin := make([]netlist.GateID, tc.arity)
		for i := range fanin {
			fanin[i] = c.MustAddGate(gname("in", i), netlist.Input)
		}
		id := c.MustAddGate("g", tc.typ, fanin...)
		if err := c.MarkOutput(id); err != nil {
			t.Fatal(err)
		}
		if err := c.Finalize(); err != nil {
			t.Fatal(err)
		}
		p := Compile(c)
		in := make([]uint64, tc.arity)
		vals := make([]logic.V, tc.arity)
		for trial := 0; trial < 50; trial++ {
			for i := range in {
				in[i] = r.Uint64()
			}
			got := p.evalWords(int32(id), in)
			for lane := 0; lane < 64; lane++ {
				for i := range in {
					vals[i] = logic.FromBool(in[i]>>lane&1 == 1)
				}
				if g, want := logic.FromBool(got>>lane&1 == 1), sim.EvalGate(tc.typ, vals); g != want {
					t.Fatalf("%v/%d lane %d: compiled %v, EvalGate %v (in=%x)", tc.typ, tc.arity, lane, g, want, in)
				}
			}
		}
	}
}

// TestProgramRunMatchesSimulator checks the compiled good-circuit pass
// against the five-valued reference simulator on fixtures, random netlists
// and the s713 stand-in, for full and partial batches: every gate's value
// word must agree with the Simulator lane by lane, with the pattern's X
// bits set to 0 (the engine's X-fill) before the Simulator sees them.
// evalWords, the one-gate form that branch-fault injection uses, must
// reproduce every gate's word from its fanin words.
func TestProgramRunMatchesSimulator(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	circuits := []*netlist.Circuit{
		mustParse(t, "c17", c17Bench),
		mustParse(t, "seq", seqBench),
		randomCircuit(t, r, 6, 40, 3, 2),
		randomCircuit(t, r, 10, 120, 5, 8),
		standinCircuit(t, "s713"),
	}
	for _, c := range circuits {
		p := Compile(c)
		s := sim.New(c)
		words := make([]uint64, c.NumGates())
		for _, n := range []int{1, 7, 63, 64} {
			batch := randomPatterns(r, len(c.PseudoInputs()), n)
			// Sprinkle X bits: Load must load them as 0.
			for _, cube := range batch {
				for j := range cube {
					if r.Intn(5) == 0 {
						cube[j] = logic.X
					}
				}
			}
			mask := loadWords(p, words, batch)
			p.Run(words, p.Order())
			if want := ^uint64(0) >> (64 - n); mask != want {
				t.Fatalf("%s n=%d: mask %x, want %x", c.Name, n, mask, want)
			}
			for k, cube := range batch {
				s.Simulate(cube.Fill(func(int) logic.V { return logic.Zero }))
				for id := 0; id < c.NumGates(); id++ {
					got := logic.FromBool(words[id]>>k&1 == 1)
					if want := s.Value(netlist.GateID(id)); got != want {
						t.Fatalf("%s n=%d lane %d gate %s: compiled %v, Simulator %v",
							c.Name, n, k, c.Gate(netlist.GateID(id)).Name, got, want)
					}
				}
			}
			var in []uint64
			for _, id := range p.Order() {
				in = in[:0]
				for _, f := range p.Spec(id).Fanin {
					in = append(in, words[f])
				}
				if got := p.evalWords(id, in); got != words[id] {
					t.Fatalf("%s n=%d gate %s: evalWords %x, Run %x",
						c.Name, n, c.Gate(netlist.GateID(id)).Name, got, words[id])
				}
			}
		}
	}
}

// TestEvalBoolMatchesEvalGate holds the serial reference's two-valued gate
// evaluator to the five-valued sim.EvalGate on every binary input vector
// of every combinational gate type, at every arity from its minimum to 4.
func TestEvalBoolMatchesEvalGate(t *testing.T) {
	for typ := netlist.GateType(0); typ.Valid(); typ++ {
		if !typ.Combinational() {
			continue
		}
		hi := typ.MaxFanin()
		if hi < 0 {
			hi = 4
		}
		for arity := typ.MinFanin(); arity <= hi; arity++ {
			in := make([]bool, arity)
			vals := make([]logic.V, arity)
			for bits := 0; bits < 1<<arity; bits++ {
				for j := range in {
					in[j] = bits>>j&1 == 1
					vals[j] = logic.FromBool(in[j])
				}
				if got, want := logic.FromBool(evalBool(typ, in)), sim.EvalGate(typ, vals); got != want {
					t.Fatalf("%v %v: evalBool %v, EvalGate %v", typ, vals, got, want)
				}
			}
		}
	}
}

// TestCompileFanoutCutsDFFEdges: the compiled fanout adjacency must stop at
// DFF data pins — they are observation boundaries, not propagation paths —
// while the observed flags must cover exactly the pseudo-output drivers.
func TestCompileFanoutCutsDFFEdges(t *testing.T) {
	c := mustParse(t, "seq", seqBench)
	p := Compile(c)
	n1, _ := c.Lookup("N1") // drives FF1 (DFF) and Y (AND)
	y, _ := c.Lookup("Y")
	ff2, _ := c.Lookup("FF2") // feeds only N2 (NOT): no DFF consumer
	fo := p.fanouts[p.fanoutOff[n1]:p.fanoutOff[n1+1]]
	if len(fo) != 1 || netlist.GateID(fo[0]) != y {
		t.Fatalf("fanouts(N1) = %v, want just Y(%d); DFF edge must be cut", fo, y)
	}
	if !p.observed[n1] {
		t.Error("N1 drives a DFF data pin: must be observed")
	}
	if !p.observed[y] {
		t.Error("Y is a primary output: must be observed")
	}
	if p.observed[ff2] {
		t.Error("FF2 feeds no DFF data pin and no PO: must not be observed")
	}
	for _, id := range c.PseudoOutputs() {
		if !p.observed[id] {
			t.Fatalf("pseudo-output driver %s not observed", c.Gate(id).Name)
		}
	}
}

// TestCompileLevelsAndOrder: compiled levels mirror the netlist levelizer
// and the compiled order is the netlist topological order.
func TestCompileLevelsAndOrder(t *testing.T) {
	c := randomCircuit(t, rand.New(rand.NewSource(23)), 8, 80, 4, 4)
	p := Compile(c)
	if p.NumLevels() != c.Depth()+1 {
		t.Fatalf("NumLevels %d, depth+1 %d", p.NumLevels(), c.Depth()+1)
	}
	for id := 0; id < c.NumGates(); id++ {
		if int(p.level[id]) != c.Level(netlist.GateID(id)) {
			t.Fatalf("gate %d: level %d vs netlist %d", id, p.level[id], c.Level(netlist.GateID(id)))
		}
	}
	order := c.TopoOrder()
	if len(order) != len(p.order) {
		t.Fatalf("order length %d vs %d", len(p.order), len(order))
	}
	for i := range order {
		if netlist.GateID(p.order[i]) != order[i] {
			t.Fatalf("order[%d] = %d, want %d", i, p.order[i], order[i])
		}
	}
}

func TestCompilePanicsOnNonFinalized(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Compile on a non-finalized circuit must panic")
		}
	}()
	c := netlist.New("raw")
	c.MustAddGate("a", netlist.Input)
	Compile(c)
}

// TestLoadMask covers the batch-size edge masks: 1 pattern, 63, 64.
func TestLoadMask(t *testing.T) {
	c := mustParse(t, "c17", c17Bench)
	p := Compile(c)
	dense := make([]uint64, len(p.ppis))
	for _, tc := range []struct {
		n    int
		mask uint64
	}{
		{1, 1}, {63, (1 << 63) - 1}, {64, ^uint64(0)},
	} {
		batch := randomPatterns(rand.New(rand.NewSource(int64(tc.n))), 5, tc.n)
		if got := p.Load(dense, nil, batch); got != tc.mask {
			t.Fatalf("Load(%d patterns) mask %x, want %x", tc.n, got, tc.mask)
		}
	}
}
