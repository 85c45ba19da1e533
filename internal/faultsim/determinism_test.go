package faultsim

import (
	"math/rand"
	"testing"

	"repro/internal/bench89"
	"repro/internal/faults"
	"repro/internal/netlist"
)

// standinCircuit generates an ISCAS'89 stand-in big enough that the
// sharded path engages at the default threshold.
func standinCircuit(t testing.TB, name string) *netlist.Circuit {
	t.Helper()
	prof, ok := bench89.ProfileByName(name)
	if !ok {
		t.Fatalf("unknown stand-in %q", name)
	}
	c, err := bench89.GenerateObserved(prof, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestShardedBitIdentical is the engine's half of the determinism
// guarantee: for real-sized circuits, the sharded simulator must produce
// the exact serial detection table — same first-detecting pattern for
// every fault, hence the same coverage after every batch — at every worker
// count.
func TestShardedBitIdentical(t *testing.T) {
	for _, name := range []string{"s713", "s953"} {
		t.Run(name, func(t *testing.T) {
			c := standinCircuit(t, name)
			flist := faults.CollapsedUniverse(c)
			r := rand.New(rand.NewSource(7))
			patterns := randomPatterns(r, len(c.PseudoInputs()), 192)
			probe := NewEngine(c, flist)
			probe.Apply(patterns[:64])
			if len(probe.roots) < minShardRoots {
				t.Fatalf("first batch propagates %d roots, below the shard threshold %d: test would not exercise sharding", len(probe.roots), minShardRoots)
			}

			serial := NewEngine(c, flist)
			serial.Apply(patterns)

			for _, w := range []int{2, 4, 8} {
				par := NewEngine(c, flist)
				par.SetWorkers(w)
				par.Apply(patterns)

				if got, want := par.DetectedCount(), serial.DetectedCount(); got != want {
					t.Fatalf("workers=%d: detected %d, serial %d", w, got, want)
				}
				gr, sr := par.Result(), serial.Result()
				for fi := range flist {
					if gr.DetectedBy[fi] != sr.DetectedBy[fi] {
						t.Fatalf("workers=%d fault %s: DetectedBy %d, serial %d",
							w, flist[fi].String(c), gr.DetectedBy[fi], sr.DetectedBy[fi])
					}
				}
			}
		})
	}
}

// TestShardedIncrementalBitIdentical drives engines the way ATPG does —
// one pattern at a time with fault dropping in between — and checks the
// sharded engine tracks the serial one at every step.
func TestShardedIncrementalBitIdentical(t *testing.T) {
	c := standinCircuit(t, "s713")
	flist := faults.CollapsedUniverse(c)
	r := rand.New(rand.NewSource(11))
	patterns := randomPatterns(r, len(c.PseudoInputs()), 96)

	serial := NewEngine(c, flist)
	sharded := NewEngine(c, flist)
	sharded.SetWorkers(8)
	for i, p := range patterns {
		ns := serial.Apply(patterns[i : i+1])
		np := sharded.Apply(patterns[i : i+1])
		if ns != np {
			t.Fatalf("pattern %d (%v): serial dropped %d, sharded %d", i, p, ns, np)
		}
		if serial.DetectedCount() != sharded.DetectedCount() {
			t.Fatalf("pattern %d: detected diverged %d vs %d", i, serial.DetectedCount(), sharded.DetectedCount())
		}
	}
	sr, pr := serial.Result(), sharded.Result()
	for fi := range flist {
		if sr.DetectedBy[fi] != pr.DetectedBy[fi] {
			t.Fatalf("fault %s: DetectedBy serial %d, sharded %d", flist[fi].String(c), sr.DetectedBy[fi], pr.DetectedBy[fi])
		}
	}
}

// TestSetWorkersMidRun flips the worker count between batches; detection
// state is a pure function of the applied patterns, so even that must not
// change anything.
func TestSetWorkersMidRun(t *testing.T) {
	c := standinCircuit(t, "s713")
	flist := faults.CollapsedUniverse(c)
	r := rand.New(rand.NewSource(13))
	patterns := randomPatterns(r, len(c.PseudoInputs()), 128)

	serial := NewEngine(c, flist)
	serial.Apply(patterns)

	mixed := NewEngine(c, flist)
	for i := 0; i < len(patterns); i += 32 {
		mixed.SetWorkers(1 + (i/32)%4) // 1, 2, 3, 4
		end := i + 32
		if end > len(patterns) {
			end = len(patterns)
		}
		mixed.Apply(patterns[i:end])
	}
	sr, mr := serial.Result(), mixed.Result()
	for fi := range flist {
		if sr.DetectedBy[fi] != mr.DetectedBy[fi] {
			t.Fatalf("fault %s: DetectedBy serial %d, mixed-workers %d", flist[fi].String(c), sr.DetectedBy[fi], mr.DetectedBy[fi])
		}
	}
}
