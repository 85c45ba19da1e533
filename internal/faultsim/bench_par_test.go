package faultsim

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/faults"
)

// BenchmarkShardedFaultSim measures the sharded engine against the serial
// one on real-sized stand-ins. On a single-CPU host the worker variants
// should track serial (the pool adds only dispatch overhead); speedup
// appears with GOMAXPROCS > 1.
func BenchmarkShardedFaultSim(b *testing.B) {
	for _, name := range []string{"s713", "s1423"} {
		c := standinCircuit(b, name)
		flist := faults.CollapsedUniverse(c)
		r := rand.New(rand.NewSource(3))
		patterns := randomPatterns(r, len(c.PseudoInputs()), 256)
		for _, w := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/workers=%d", name, w), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					e := NewEngine(c, flist)
					e.SetWorkers(w)
					e.Apply(patterns)
				}
			})
		}
	}
}

// BenchmarkShardDetectOnly isolates the hot inner kernel: one batch of 64
// patterns over the full fault list, serial root propagation vs sharded.
func BenchmarkShardDetectOnly(b *testing.B) {
	c := standinCircuit(b, "s1423")
	flist := faults.CollapsedUniverse(c)
	r := rand.New(rand.NewSource(5))
	patterns := randomPatterns(r, len(c.PseudoInputs()), 64)
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// A fresh engine per iteration: no faults are dropped
				// between runs, so every iteration does identical work.
				eng := NewEngine(c, flist)
				eng.SetWorkers(w)
				eng.Apply(patterns)
			}
		})
	}
}

// BenchmarkKernelVsSerial measures the PPSFP kernel against the
// pattern-at-a-time serial reference engine — the speedup the 64-wide
// packing plus event-driven cone propagation buys on one thread. The
// TestDifferential* tests check that the two engines agree.
func BenchmarkKernelVsSerial(b *testing.B) {
	for _, name := range []string{"s713", "s1423"} {
		c := standinCircuit(b, name)
		flist := faults.CollapsedUniverse(c)
		r := rand.New(rand.NewSource(3))
		patterns := randomPatterns(r, len(c.PseudoInputs()), 128)
		b.Run(name+"/ppsfp", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Simulate(c, patterns, flist)
			}
		})
		b.Run(name+"/serial", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				SerialSimulate(c, patterns, flist)
			}
		})
	}
}
