package faultsim

import (
	"math/rand"
	"testing"

	"repro/internal/faults"
	"repro/internal/netlist"
)

// FuzzPPSFPWord cross-checks one packed word of the PPSFP kernel against 64
// independent serial evaluations: for an arbitrary parsed netlist, an
// arbitrary fault and an arbitrary batch of up to 64 random patterns, bit k
// of the kernel's per-pattern detection word (QueuedDetects over the
// patterns queued one lane each) must agree with SerialDetects run on
// pattern k alone, and Simulate's first detector must be the lowest such k.
func FuzzPPSFPWord(f *testing.F) {
	f.Add(c17Bench, int64(1), uint16(0), uint8(64))
	f.Add(c17Bench, int64(7), uint16(13), uint8(1))
	f.Add(seqBench, int64(3), uint16(5), uint8(63))
	f.Add("INPUT(a)\nOUTPUT(y)\nn = NOT(a)\nf = DFF(n)\ny = AND(n, f)\n", int64(9), uint16(2), uint8(65))
	f.Add("x = CONST1()\nOUTPUT(x)\n", int64(1), uint16(0), uint8(5))
	f.Fuzz(func(t *testing.T, src string, seed int64, faultSel uint16, nPat uint8) {
		c, err := netlist.ParseBenchString("fuzz", src)
		if err != nil {
			return
		}
		if c.NumGates() > 400 {
			return // keep a fuzz iteration cheap
		}
		flist := faults.Universe(c)
		if len(flist) == 0 {
			return
		}
		fault := flist[int(faultSel)%len(flist)]
		n := 1 + int(nPat)%64
		r := rand.New(rand.NewSource(seed))
		patterns := randomPatterns(r, len(c.PseudoInputs()), n)

		// Kernel, dropping path: first-detecting pattern index.
		res := Simulate(c, patterns, []faults.Fault{fault})
		// Kernel, per-pattern path: one lane per pattern.
		e := NewEngine(c, []faults.Fault{fault})
		for _, p := range patterns {
			e.Queue(p)
		}
		word := e.QueuedDetects(fault)

		wantFirst := Undetected
		for k, p := range patterns {
			want := SerialDetects(c, p, fault)
			if wantFirst == Undetected && want {
				wantFirst = k
			}
			if got := word>>uint(k)&1 == 1; got != want {
				t.Fatalf("fault %s pattern %d: kernel %v, serial %v", fault.String(c), k, got, want)
			}
		}
		if res.DetectedBy[0] != wantFirst {
			t.Fatalf("fault %s: kernel first-detect %d, serial %d",
				fault.String(c), res.DetectedBy[0], wantFirst)
		}
	})
}
