package faultsim

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/faults"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// detectWord is the per-fault PPSFP kernel that region-root detection
// replaced, kept as its oracle: it injects fault f at its own site and
// propagates the faulty word through the site's whole fanout cone, with no
// fanout-free-region shortcut and nothing shared between faults. Bit k of
// the result is set iff pattern k of the loaded batch detects f.
func (ev *faultEval) detectWord(f faults.Fault, mask uint64) uint64 {
	stuck := uint64(0)
	if f.Stuck == logic.One {
		stuck = ^uint64(0)
	}
	g := ev.e.c.Gate(f.Gate)
	if f.Pin != faults.StemPin && g.Type == netlist.DFF {
		// Branch fault on a DFF data pin: the captured value is stuck;
		// detection is any pattern where the good driver value differs.
		return (ev.good[g.Fanin[f.Pin]] ^ stuck) & mask
	}
	site := int32(f.Gate)
	fw := stuck
	if f.Pin != faults.StemPin {
		fw = ev.evalWithPin(site, f.Pin, stuck)
	}
	return ev.propagate(site, fw) & mask
}

// shapeCircuit builds a random sequential circuit out of the shapes that
// fanout-free regions must handle: XOR/XNOR gates for about xorShare of
// the logic, wide AND/OR gates of up to nine fanins, drivers wired to two
// pins of one gate, primary outputs on gates that also fan out, DFFs that
// close loops, and gates that drive nothing.
func shapeCircuit(t *testing.T, r *rand.Rand, nIn, nGates, nDFF int, xorShare float64) *netlist.Circuit {
	t.Helper()
	b := netlist.NewBuilder(fmt.Sprintf("shape%d", nGates))
	var pool []string
	for i := 0; i < nIn; i++ {
		pool = append(pool, gname("in", i))
		b.Input(pool[len(pool)-1])
	}
	for i := 0; i < nDFF; i++ {
		pool = append(pool, gname("ff", i))
	}
	pick := func() string {
		if r.Intn(2) == 0 { // a recent net: deep, narrow regions
			return pool[len(pool)-1-r.Intn(min(len(pool), 6))]
		}
		return pool[r.Intn(len(pool))]
	}
	other := []netlist.GateType{netlist.And, netlist.Nand, netlist.Or, netlist.Nor, netlist.Not, netlist.Buf}
	for i := 0; i < nGates; i++ {
		tt := other[r.Intn(len(other))]
		if r.Float64() < xorShare {
			tt = []netlist.GateType{netlist.Xor, netlist.Xnor}[r.Intn(2)]
		}
		nf := 1
		if tt.MinFanin() >= 2 {
			nf = 2
			if r.Intn(4) == 0 {
				nf = 4 + r.Intn(6)
			}
		}
		fanin := make([]string, nf)
		for j := range fanin {
			fanin[j] = pick()
		}
		if nf >= 2 && r.Intn(6) == 0 {
			fanin[nf-1] = fanin[0] // one driver on two pins
		}
		pool = append(pool, gname("g", i))
		b.Gate(pool[len(pool)-1], tt, fanin...)
	}
	for i := 0; i < nDFF; i++ {
		b.Gate(gname("ff", i), netlist.DFF, pool[nIn+nDFF+r.Intn(nGates)])
	}
	outs := map[string]bool{}
	for len(outs) < 1+nGates/8 {
		outs[pool[nIn+nDFF+r.Intn(nGates)]] = true
	}
	for i := nIn + nDFF; i < len(pool); i++ { // in declaration order
		if outs[pool[i]] {
			b.Output(pool[i])
		}
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// regionShapes counts the structures of p that region detection treats
// specially: observed gates that also fan out, drivers wired to two pins
// of one gate, combinational gates that drive nothing, and gates inside a
// region (with a successor).
type regionShapes struct{ observedFanout, doubleFed, dangling, internal int }

func (s *regionShapes) add(p *Program) {
	for id := range p.op {
		fo := p.fanouts[p.fanoutOff[id]:p.fanoutOff[id+1]]
		switch {
		case p.observed[id] && len(fo) > 0:
			s.observedFanout++
		case len(fo) == 0 && !p.observed[id] && p.op[id] != pSource:
			s.dangling++
		}
		if len(fo) == 2 && fo[0] == fo[1] {
			s.doubleFed++
		}
		if p.succ[id] >= 0 {
			s.internal++
		}
	}
}

// checkRegionDetect compares region-root detection with the per-fault
// oracle on every fault of c's uncollapsed universe (stems, fanout
// branches, DFF data pins). For each batch size 1, 63 and 64 it loads two
// consecutive batches and requires every fault's detection word to equal
// the oracle's: from detectBatch on engines of 1, 2 and 4 workers (which
// keep their root lists from batch to batch), and from QueuedDetects with
// the first half of the batch queued, then all of it. The queued engine
// flushes each batch, so in the second batch the faults the first
// dropped are asked about too.
func checkRegionDetect(t *testing.T, label string, c *netlist.Circuit, r *rand.Rand) {
	t.Helper()
	flist := faults.Universe(c)
	prog := Compile(c)
	patterns := laneCubes(r, len(c.PseudoInputs()))
	patterns = append(patterns, laneCubes(r, len(c.PseudoInputs()))...)
	ref := NewEngineFor(prog, flist)
	oracle := func(batch []logic.Cube) []uint64 {
		mask := loadWords(prog, ref.good, batch)
		prog.Run(ref.good, prog.order)
		want := make([]uint64, len(flist))
		for i, f := range flist {
			want[i] = ref.ev.detectWord(f, mask)
		}
		return want
	}
	compare := func(how string, size, b int, i int, got, want uint64) {
		t.Helper()
		if got != want {
			t.Fatalf("%s batch size %d, batch %d, %s: fault %s detected in lanes %#x, per-fault oracle %#x",
				label, size, b, how, flist[i].String(c), got, want)
		}
	}
	for _, size := range []int{1, 63, 64} {
		engines := map[int]*Engine{}
		for _, w := range []int{1, 2, 4} {
			engines[w] = NewEngineFor(prog, flist)
			engines[w].SetWorkers(w)
		}
		queued := NewEngineFor(prog, flist)
		for b := 0; b < 2; b++ {
			batch := patterns[b*size : (b+1)*size]
			want := oracle(batch)
			for w, e := range engines {
				mask := loadWords(prog, e.good, batch)
				if e.regionStale {
					e.computeRegion()
				}
				prog.Run(e.good, e.region)
				e.detectBatch()
				for i := range flist {
					compare(fmt.Sprintf("%d workers", w), size, b, i, e.detection(i, mask), want[i])
				}
			}

			half := size / 2
			for _, cube := range batch[:half] {
				queued.Queue(cube)
			}
			if half > 0 {
				wantHalf := oracle(batch[:half])
				for i, f := range flist {
					compare(fmt.Sprintf("QueuedDetects of %d lanes", half), size, b, i, queued.QueuedDetects(f), wantHalf[i])
				}
			}
			for _, cube := range batch[half:] {
				queued.Queue(cube)
			}
			for i, f := range flist {
				compare(fmt.Sprintf("QueuedDetects of %d lanes", size), size, b, i, queued.QueuedDetects(f), want[i])
			}
			queued.Flush()
		}
	}
}

// TestRegionDetectMatchesPerFault holds region-root detection — each
// fault's effect walked up its fanout-free region, one propagation per
// root — to the per-fault kernel it replaced, fault by fault and lane by
// lane (checkRegionDetect), on every .bench fixture, the six stand-ins,
// flattened SOC1 and SOC2, and random circuits of XOR-heavy, wide-gate,
// double-fed, observed-with-fanout, DFF-loop and dangling shapes.
func TestRegionDetectMatchesPerFault(t *testing.T) {
	defer func(old int) { minShardRoots = old }(minShardRoots)
	minShardRoots = 1 // shard every batch at 2 and 4 workers

	r := rand.New(rand.NewSource(25))
	for name, c := range fixtureCircuits(t) {
		checkRegionDetect(t, name, c, r)
	}
	for _, name := range standinNames {
		checkRegionDetect(t, name, standinCircuit(t, name), r)
	}
	for _, c := range flatSOCs(t) {
		checkRegionDetect(t, c.Name, c, r)
	}

	var shapes regionShapes
	for i := 0; i < 24; i++ {
		xorShare := []float64{0.1, 0.5, 0.9}[i%3]
		c := shapeCircuit(t, r, 2+r.Intn(8), 10+r.Intn(150), r.Intn(6), xorShare)
		shapes.add(Compile(c))
		checkRegionDetect(t, fmt.Sprintf("%s/xor%.1f", c.Name, xorShare), c, r)
	}
	if shapes.observedFanout == 0 || shapes.doubleFed == 0 || shapes.dangling == 0 || shapes.internal == 0 {
		t.Fatalf("random shapes missed a case: %+v", shapes)
	}
}
