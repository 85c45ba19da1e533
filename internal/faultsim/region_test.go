package faultsim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bench89"
	"repro/internal/faults"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/soc"
)

// scrambleDead returns a good-pass hook that overwrites every good word
// outside the engine's live region with garbage, so that any word
// detection reads but the region misses changes some detection.
func scrambleDead(r *rand.Rand) func(*Engine) {
	return func(e *Engine) {
		for id, live := range e.live {
			if live == deadGate {
				e.good[id] = r.Uint64()
			}
		}
	}
}

// fullPass returns the reference engines' good-pass hook for the given
// batches, in the order the engine simulates them: it reloads every
// pseudo input bit by bit (loadBitwise) and evaluates the full
// topological order, as the good pass did before both were restricted to
// the live region.
func fullPass(batches [][]logic.Cube) func(*Engine) {
	return func(e *Engine) {
		loadBitwise(e.prog, e.good, batches[0])
		batches = batches[1:]
		e.prog.Run(e.good, e.prog.order)
	}
}

// checkRegion grades patterns on c twice per batch size (1, 63, 64) and
// worker count (1, 2): once with every good word outside the live region
// scrambled after each good pass, once with every pseudo input loaded and
// the full order evaluated. The first half of the patterns goes in
// 64-pattern batches, dropping most faults; the rest in batches of the
// given size, against the few faults left. Any difference in the
// detection tables fails the test. It returns the fewest gates a
// scrambled good pass evaluated.
func checkRegion(t *testing.T, label string, c *netlist.Circuit, flist []faults.Fault, patterns []logic.Cube) int {
	t.Helper()
	fewest := c.NumGates()
	half := len(patterns) / 2
	for _, batch := range []int{1, 63, 64} {
		var batches [][]logic.Cube
		for off := 0; off < half; off += wordBits {
			batches = append(batches, patterns[off:min(off+wordBits, half)])
		}
		for off := half; off < len(patterns); off += batch {
			batches = append(batches, patterns[off:min(off+batch, len(patterns))])
		}
		for _, workers := range []int{1, 2} {
			grade := func(hook func(*Engine)) *Result {
				e := NewEngine(c, flist)
				e.SetWorkers(workers)
				e.goodHook = hook
				e.Apply(patterns[:half])
				for off := half; off < len(patterns); off += batch {
					e.Apply(patterns[off:min(off+batch, len(patterns))])
				}
				return e.Result()
			}
			r := rand.New(rand.NewSource(int64(batch*10 + workers)))
			scramble := scrambleDead(r)
			got := grade(func(e *Engine) {
				fewest = min(fewest, len(e.region))
				scramble(e)
			})
			want := grade(fullPass(batches))
			if !slices.Equal(got.DetectedBy, want.DetectedBy) {
				for i := range flist {
					if got.DetectedBy[i] != want.DetectedBy[i] {
						t.Fatalf("%s batch=%d workers=%d: fault %s first detected by %d over the live region, %d over the full order",
							label, batch, workers, flist[i].String(c), got.DetectedBy[i], want.DetectedBy[i])
					}
				}
			}
		}
	}
	return fewest
}

// loopCircuit builds a random sequential circuit whose DFFs close loops:
// gates read inputs, DFF outputs and earlier gates, and each DFF captures
// any net, a gate or a source, so faults on DFF data pins have drivers of
// both kinds. Some gates are constants, so that some DFF data-pin faults
// stay undetected for good.
func loopCircuit(t *testing.T, r *rand.Rand, nIn, nGates, nDFF, nOut int) *netlist.Circuit {
	t.Helper()
	b := netlist.NewBuilder(fmt.Sprintf("loop%d", nGates))
	var pool []string
	for i := 0; i < nIn; i++ {
		pool = append(pool, gname("in", i))
		b.Input(pool[len(pool)-1])
	}
	for i := 0; i < nDFF; i++ {
		pool = append(pool, gname("ff", i))
	}
	types := []netlist.GateType{netlist.And, netlist.Nand, netlist.Or, netlist.Nor, netlist.Xor, netlist.Xnor, netlist.Not, netlist.Buf, netlist.Const0, netlist.Const1}
	for i := 0; i < nGates; i++ {
		tt := types[r.Intn(len(types))]
		nf := tt.MinFanin()
		if nf >= 2 {
			nf = 2 + r.Intn(2)
		}
		fanin := make([]string, nf)
		for j := range fanin {
			fanin[j] = pool[r.Intn(len(pool))]
		}
		pool = append(pool, gname("g", i))
		b.Gate(pool[len(pool)-1], tt, fanin...)
	}
	for i := 0; i < nDFF; i++ {
		b.Gate(gname("ff", i), netlist.DFF, pool[r.Intn(len(pool))])
	}
	for i := 0; i < nOut; i++ {
		b.Output(pool[len(pool)-1-i])
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// flatSOCs returns SOC1 and SOC2 flattened as the live rerun builds them.
func flatSOCs(t *testing.T) []*netlist.Circuit {
	t.Helper()
	var out []*netlist.Circuit
	for _, chip := range []struct {
		name  string
		cores []string
	}{
		{"SOC1-flat", []string{"s713", "s953", "s1423", "s1423", "s1423"}},
		{"SOC2-flat", []string{"s953", "s5378", "s13207", "s15850"}},
	} {
		var cores []*netlist.Circuit
		for i, name := range chip.cores {
			prof, ok := bench89.ProfileByName(name)
			if !ok {
				t.Fatalf("unknown stand-in %q", name)
			}
			prof.Seed += int64(i) * 1013 // the per-instance offset of repro.LiveSOC1/2
			c, err := bench89.Generate(prof)
			if err != nil {
				t.Fatal(err)
			}
			cores = append(cores, c)
		}
		c, err := soc.Flatten(chip.name, cores, soc.FlattenOptions{Seed: 1, InterconnectFraction: 0.45})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, c)
	}
	return out
}

// TestLiveRegionCoversEveryRead holds the live region to its claim: it
// contains every good word detection reads for a remaining fault. With
// every word outside it scrambled after each good pass, the detection
// tables must equal those of grading over the full order — on every
// collapsed fault of every .bench fixture, the six stand-ins, flattened
// SOC1 and SOC2, and random circuits with DFF loops under the full
// (uncollapsed) fault universe of stem, branch and DFF data-pin faults.
// The random circuits are also graded on their DFF data-pin faults alone:
// in the full universe, the driver's own stem fault, which every pattern
// detecting the pin fault detects too, keeps the driver in the cone
// whenever the pin fault remains.
func TestLiveRegionCoversEveryRead(t *testing.T) {
	defer func(old int) { minShardRoots = old }(minShardRoots)
	minShardRoots = 1 // shard every batch at 2 workers

	r := rand.New(rand.NewSource(24))
	patternsFor := func(c *netlist.Circuit) []logic.Cube {
		return randomPatterns(r, len(c.PseudoInputs()), 256)
	}
	for name, c := range fixtureCircuits(t) {
		checkRegion(t, name, c, faults.CollapsedUniverse(c), patternsFor(c))
	}

	// Circuits big enough that the region must shrink below the full order.
	var big []*netlist.Circuit
	for _, name := range []string{"s713", "s953", "s1423", "s5378", "s13207", "s15850"} {
		big = append(big, standinCircuit(t, name))
	}
	big = append(big, flatSOCs(t)...)
	for _, c := range big {
		if fewest := checkRegion(t, c.Name, c, faults.CollapsedUniverse(c), patternsFor(c)); fewest >= len(Compile(c).order) {
			t.Errorf("%s: the region never shrank below the full order; scrambling tested nothing", c.Name)
		}
	}

	pinFaults := 0
	for i := 0; i < 12; i++ {
		c := loopCircuit(t, r, 3+r.Intn(6), 20+r.Intn(120), 1+r.Intn(8), 1+r.Intn(4))
		flist := faults.Universe(c)
		var pins []faults.Fault
		for _, f := range flist {
			if f.Pin != faults.StemPin && c.Gate(f.Gate).Type == netlist.DFF {
				pins = append(pins, f)
			}
		}
		pinFaults += len(pins)
		checkRegion(t, c.Name, c, flist, patternsFor(c))
		if len(pins) > 0 {
			checkRegion(t, c.Name+"/dff-pins", c, pins, patternsFor(c))
		}
	}
	if pinFaults == 0 {
		t.Fatal("no random circuit had a DFF data-pin fault")
	}
}
