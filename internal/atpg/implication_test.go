package atpg

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/faultsim"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/sim"
)

// sweepOracle is PODEM's implication as it was before it became
// event-driven: every step re-simulates the whole circuit in topological
// order from the full assignment, and the D-frontier and the X-path check
// scan every gate. It shares no state or code with the production
// implication and serves as its differential oracle.
type sweepOracle struct {
	c      *netlist.Circuit
	ppis   []netlist.GateID
	ppos   []netlist.GateID
	fault  faults.Fault
	dffPin bool
	base   logic.Cube

	values  []logic.V
	scratch []logic.V
	xreach  []bool
	xmark   []bool
}

func newSweepOracle(c *netlist.Circuit) *sweepOracle {
	return &sweepOracle{
		c:      c,
		ppis:   c.PseudoInputs(),
		ppos:   c.PseudoOutputs(),
		values: make([]logic.V, c.NumGates()),
		xreach: make([]bool, c.NumGates()),
		xmark:  make([]bool, c.NumGates()),
	}
}

// imply performs full five-valued forward implication with the target
// fault injected, over base plus the stack's assignments.
func (o *sweepOracle) imply(f faults.Fault, base logic.Cube, stack []assignment) {
	o.fault, o.base = f, base
	o.dffPin = f.Pin != faults.StemPin && o.c.Gate(f.Gate).Type == netlist.DFF
	for i := range o.values {
		o.values[i] = logic.X
	}
	for i, v := range base {
		if v.Binary() {
			o.values[o.ppis[i]] = v
		}
	}
	for _, a := range stack {
		o.values[a.pi] = a.value
	}
	// Inject at a source site (PI or DFF output stem fault).
	if f.Pin == faults.StemPin {
		g := o.c.Gate(f.Gate)
		if g.Type == netlist.Input || g.Type == netlist.DFF {
			o.values[f.Gate] = faultyValue(o.values[f.Gate], f.Stuck)
		}
	}
	for _, id := range o.c.TopoOrder() {
		g := o.c.Gate(id)
		if cap(o.scratch) < len(g.Fanin) {
			o.scratch = make([]logic.V, len(g.Fanin))
		}
		in := o.scratch[:len(g.Fanin)]
		for j, fin := range g.Fanin {
			in[j] = o.values[fin]
			if !o.dffPin && f.Pin == j && f.Gate == id {
				in[j] = faultyValue(in[j], f.Stuck)
			}
		}
		v := sim.EvalGate(g.Type, in)
		if f.Pin == faults.StemPin && f.Gate == id {
			v = faultyValue(v, f.Stuck)
		}
		o.values[id] = v
	}
}

// dFrontier lists gates with an X output and at least one faulty input,
// in topological order.
func (o *sweepOracle) dFrontier() []netlist.GateID {
	var df []netlist.GateID
	for _, id := range o.c.TopoOrder() {
		if o.values[id] != logic.X {
			continue
		}
		for j, fin := range o.c.Gate(id).Fanin {
			v := o.values[fin]
			if !o.dffPin && o.fault.Pin == j && o.fault.Gate == id {
				v = faultyValue(v, o.fault.Stuck)
			}
			if v.Faulty() {
				df = append(df, id)
				break
			}
		}
	}
	return df
}

// xPathExists marks everything that reaches an X-valued pseudo output
// backwards through X-valued gates, then asks whether a D-frontier gate is
// marked.
func (o *sweepOracle) xPathExists() bool {
	for i := range o.xreach {
		o.xreach[i] = false
		o.xmark[i] = false
	}
	for _, id := range o.ppos {
		if o.values[id] == logic.X {
			o.markObserved(id)
		}
	}
	for _, id := range o.dFrontier() {
		if o.xreach[id] {
			return true
		}
	}
	return false
}

func (o *sweepOracle) markObserved(id netlist.GateID) {
	stack := []netlist.GateID{id}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if o.xmark[n] {
			continue
		}
		o.xmark[n] = true
		o.xreach[n] = true
		for _, fin := range o.c.Gate(n).Fanin {
			if o.values[fin] == logic.X && !o.xmark[fin] {
				stack = append(stack, fin)
			}
		}
	}
}

// checkAgainstSweep makes every implication step of p's searches assert
// equal value arrays, an equal ordered D-frontier and an equal X-path
// verdict against the full-sweep oracle. It returns the step count.
func checkAgainstSweep(t testing.TB, p *podem) *int {
	t.Helper()
	o := newSweepOracle(p.c)
	steps := new(int)
	p.afterImply = func(stack []assignment) {
		*steps++
		o.imply(p.fault, p.base, stack)
		for id, want := range o.values {
			if got := p.values[id]; got != want {
				t.Fatalf("%s %s, step %d (depth %d): gate %s = %v, full sweep %v",
					p.c.Name, p.fault.String(p.c), *steps, len(stack), p.c.Gate(netlist.GateID(id)).Name, got, want)
			}
		}
		df := p.dFrontier()
		want := o.dFrontier()
		if len(df) != len(want) {
			t.Fatalf("%s %s, step %d: D-frontier %v, full sweep %v", p.c.Name, p.fault.String(p.c), *steps, df, want)
		}
		for i := range df {
			if netlist.GateID(df[i]) != want[i] {
				t.Fatalf("%s %s, step %d: D-frontier %v, full sweep %v", p.c.Name, p.fault.String(p.c), *steps, df, want)
			}
		}
		if got, want := p.xPathExists(df), o.xPathExists(); got != want {
			t.Fatalf("%s %s, step %d: X-path %v, full sweep %v", p.c.Name, p.fault.String(p.c), *steps, got, want)
		}
	}
	return steps
}

// everyLine lists both stuck-at faults on every gate output and on every
// gate input pin, fanout or not: stems on PIs and DFF outputs, and
// branches on DFF data pins included.
func everyLine(c *netlist.Circuit) []faults.Fault {
	var fs []faults.Fault
	for id := netlist.GateID(0); int(id) < c.NumGates(); id++ {
		for pin := faults.StemPin; pin < len(c.Gate(id).Fanin); pin++ {
			fs = append(fs, faults.Fault{Gate: id, Pin: pin, Stuck: logic.Zero},
				faults.Fault{Gate: id, Pin: pin, Stuck: logic.One})
		}
	}
	return fs
}

// diffSearch runs every line fault of c through a checked search, then
// extends each detected cube with the next few faults as secondary
// targets — the runWithBase path of dynamic compaction. It returns the
// number of implication steps checked.
func diffSearch(t testing.TB, c *netlist.Circuit, limit int) int {
	t.Helper()
	p := newPodem(faultsim.Compile(c), limit, nil)
	steps := checkAgainstSweep(t, p)
	fs := everyLine(c)
	for i, f := range fs {
		cube, st := p.run(f)
		if st != Detected {
			continue
		}
		for _, g := range fs[i+1 : min(i+4, len(fs))] {
			p.runWithBase(g, cube)
		}
	}
	return *steps
}

func TestImplyMatchesSweepOnFixtures(t *testing.T) {
	paths, err := filepath.Glob("../netlist/testdata/*.bench")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no .bench fixtures: %v", err)
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			c := mustParse(t, filepath.Base(path), string(src))
			if steps := diffSearch(t, c, 100); steps == 0 {
				t.Fatal("no implication step checked")
			}
		})
	}
}

// diffCircuit builds a random netlist whose gate mix is drawn from types,
// with constant tie-offs in the fanin pool and DFFs whose outputs feed the
// logic and whose data pins close sequential loops from deep gates. It is
// written as .bench text, which allows those forward references.
func diffCircuit(t testing.TB, r *rand.Rand, types []netlist.GateType, nIn, nGates, nOut, nDFF, nConst int) *netlist.Circuit {
	t.Helper()
	var b strings.Builder
	var pool []string
	for i := 0; i < nIn; i++ {
		pool = append(pool, gname("in", i))
		fmt.Fprintf(&b, "INPUT(%s)\n", pool[len(pool)-1])
	}
	for i := 0; i < nConst; i++ {
		pool = append(pool, gname("k", i))
		fmt.Fprintf(&b, "%s = CONST%d()\n", pool[len(pool)-1], r.Intn(2))
	}
	for i := 0; i < nDFF; i++ {
		pool = append(pool, gname("ff", i))
		// The data pin reads a gate from the second half of the logic.
		fmt.Fprintf(&b, "%s = DFF(%s)\n", pool[len(pool)-1], gname("g", nGates/2+r.Intn(nGates-nGates/2)))
	}
	for i := 0; i < nGates; i++ {
		tt := types[r.Intn(len(types))]
		nf := 1
		if tt.MinFanin() >= 2 {
			nf = 2 + r.Intn(3)
		}
		fanin := make([]string, nf)
		for j := range fanin {
			// Favour recent gates so cones get deep.
			k := len(pool) - 1 - r.Intn(min(len(pool), 12))
			if r.Intn(3) == 0 {
				k = r.Intn(len(pool))
			}
			fanin[j] = pool[k]
		}
		pool = append(pool, gname("g", i))
		fmt.Fprintf(&b, "%s = %s(%s)\n", pool[len(pool)-1], tt, strings.Join(fanin, ", "))
	}
	for i := 0; i < nOut && i < nGates; i++ {
		fmt.Fprintf(&b, "OUTPUT(%s)\n", gname("g", nGates-1-i))
	}
	c, err := netlist.ParseBenchString("diff", b.String())
	if err != nil {
		t.Fatalf("%v\n%s", err, b.String())
	}
	return c
}

var (
	allTypes = []netlist.GateType{netlist.And, netlist.Nand, netlist.Or, netlist.Nor,
		netlist.Xor, netlist.Xnor, netlist.Not, netlist.Buf}
	xorTypes = []netlist.GateType{netlist.Xor, netlist.Xnor, netlist.Xor, netlist.Xnor,
		netlist.Not, netlist.And}
)

func TestImplyMatchesSweepOnRandomShapes(t *testing.T) {
	shapes := []struct {
		name                            string
		types                           []netlist.GateType
		nIn, nGates, nOut, nDFF, nConst int
	}{
		{"comb", allTypes, 6, 40, 4, 0, 0},
		{"seq", allTypes, 4, 50, 3, 5, 0},
		{"const", allTypes, 4, 40, 3, 2, 4},
		{"xor", xorTypes, 5, 40, 3, 2, 1},
		{"wide", allTypes, 12, 30, 8, 0, 0},
		{"deep", []netlist.GateType{netlist.And, netlist.Or, netlist.Not}, 3, 60, 2, 1, 1},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				r := rand.New(rand.NewSource(seed))
				c := diffCircuit(t, r, sh.types, sh.nIn, sh.nGates, sh.nOut, sh.nDFF, sh.nConst)
				diffSearch(t, c, 20)
			}
		})
	}
}

// TestImplyConstantBaseline pins the case where the baseline is not all X:
// a constant forces a gate before any decision, so a fault on it is
// activated (or blocked) by implication alone.
func TestImplyConstantBaseline(t *testing.T) {
	c := mustParse(t, "const", `
INPUT(a)
INPUT(b)
OUTPUT(y)
OUTPUT(z)
one = CONST1()
zero = CONST0()
n1 = AND(one, a)
n2 = OR(zero, b)
n3 = NAND(one, one)
y = XOR(n1, n3)
z = AND(n2, one)
`)
	p := newPodem(faultsim.Compile(c), 100, nil)
	n3, _ := c.Lookup("n3")
	if p.values[n3] != logic.Zero {
		t.Fatalf("baseline n3 = %v, want 0 from the constants", p.values[n3])
	}
	diffSearch(t, c, 100)
	// n3/SA1 is activated by the constants alone and propagates through y
	// once n1 is set.
	if _, st := p.run(faults.Fault{Gate: n3, Pin: faults.StemPin, Stuck: logic.One}); st != Detected {
		t.Fatalf("n3/SA1 = %v, want detected", st)
	}
	// n3/SA0 can never be activated.
	if _, st := p.run(faults.Fault{Gate: n3, Pin: faults.StemPin, Stuck: logic.Zero}); st != Redundant {
		t.Fatalf("n3/SA0 = %v, want redundant", st)
	}
	// After a search the values unwind to the baseline.
	p.begin(faults.Fault{Gate: n3, Pin: 0, Stuck: logic.Zero}, nil)
	p.undo(0)
	if p.values[n3] != logic.Zero || len(p.trail) != 0 {
		t.Fatalf("unwound n3 = %v with %d trail entries", p.values[n3], len(p.trail))
	}
}

func TestImplyMatchesSweepOnStandin(t *testing.T) {
	if testing.Short() {
		t.Skip("full-fault differential on a stand-in; skipped in -short")
	}
	c := standin(t, "s713")
	p := newPodem(faultsim.Compile(c), 30, nil)
	checkAgainstSweep(t, p)
	fs := faults.CollapsedUniverse(c)
	for i := 0; i < len(fs); i += 7 {
		p.run(fs[i])
	}
}

// TestImplyPerStepWork checks the point of the event-driven design: on a
// stand-in, one implication step evaluates far fewer gates than the
// circuit holds.
func TestImplyPerStepWork(t *testing.T) {
	c := standin(t, "s953")
	p := newPodem(faultsim.Compile(c), 100, nil)
	var steps int64
	p.afterImply = func([]assignment) { steps++ }
	p.cGateEvals = obs.New(obs.NewRegistry(), nil).Counter("atpg.implication.gate_evals")
	for _, f := range faults.CollapsedUniverse(c) {
		p.run(f)
	}
	evals := p.cGateEvals.Value()
	gates := int64(len(c.TopoOrder()))
	if steps == 0 || evals*10 > steps*gates {
		t.Fatalf("%d gate evaluations over %d steps on %d gates: not 10x below a full sweep", evals, steps, gates)
	}
}

func FuzzImply(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(40), uint8(2), uint8(1), uint16(0), uint8(0))
	f.Add(int64(7), uint8(3), uint8(20), uint8(0), uint8(3), uint16(5), uint8(1))
	f.Add(int64(42), uint8(10), uint8(60), uint8(4), uint8(0), uint16(99), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, nIn, nGates, nDFF, nConst uint8, fault uint16, mix uint8) {
		types := [][]netlist.GateType{allTypes, xorTypes, {netlist.Nand, netlist.Nor, netlist.Not}}[int(mix)%3]
		r := rand.New(rand.NewSource(seed))
		c := diffCircuit(t, r, types, 1+int(nIn)%12, 1+int(nGates)%80, 1+int(nGates)%4,
			int(nDFF)%6, int(nConst)%4)
		fs := everyLine(c)
		p := newPodem(faultsim.Compile(c), 15, nil)
		checkAgainstSweep(t, p)
		start := int(fault) % len(fs)
		for i := 0; i < 8 && i < len(fs); i++ {
			cube, st := p.run(fs[(start+i)%len(fs)])
			if st == Detected {
				p.runWithBase(fs[(start+i+1)%len(fs)], cube)
			}
		}
	})
}
