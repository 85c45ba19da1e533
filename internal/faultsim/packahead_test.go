package faultsim

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/faults"
	"repro/internal/logic"
	"repro/internal/obs"
)

// applyRun is what one grading run leaves: the result, the pattern count,
// the faultsim.* counters and how many times faultsim.load observed.
type applyRun struct {
	res      *Result
	patterns int
	counters map[string]int64
	loads    int64
}

// runApply grades patterns against flist on an instrumented engine of the
// given workers, with one Apply call, or with one per 64 patterns when
// perBatch is set.
func runApply(prog *Program, flist []faults.Fault, patterns []logic.Cube, workers int, perBatch bool) applyRun {
	reg := obs.NewRegistry()
	e := NewEngineFor(prog, flist)
	e.Instrument(obs.New(reg, nil))
	e.SetWorkers(workers)
	if perBatch {
		for off := 0; off < len(patterns); off += wordBits {
			e.Apply(patterns[off:min(off+wordBits, len(patterns))])
		}
	} else {
		e.Apply(patterns)
	}
	snap := reg.Snapshot()
	return applyRun{e.Result(), e.NumPatterns(), snap.Counters, snap.Timers["faultsim.load"].Count}
}

// TestApplyPackAheadMatchesSerial holds Apply at 1, 2 and 4 workers, which
// packs up to packChunk batches ahead on the pool, to one Apply per 64
// patterns on a serial engine: the same Result, pattern count and
// faultsim.* counters, at pattern counts around one batch and around the
// chunk, over cubes with X and arbitrary bytes. A serial engine packs each
// batch as it applies it, a multi-worker one once per chunk. For a fault
// list that the first chunk drops entirely, a multi-worker engine packs
// that chunk alone and counts the later batches exactly as the serial
// reference does.
func TestApplyPackAheadMatchesSerial(t *testing.T) {
	c := standinCircuit(t, "s713")
	prog := Compile(c)
	chunk := packChunk * wordBits
	r := rand.New(rand.NewSource(32))
	patterns := byteCubes(r, len(c.PseudoInputs()), 3*chunk+17)
	universe := faults.CollapsedUniverse(c)

	// The faults the first 300 patterns detect all drop in the fifth batch
	// of the first chunk or earlier.
	var early []faults.Fault
	for i, d := range runApply(prog, universe, patterns, 1, true).res.DetectedBy {
		if d != Undetected && d < 300 {
			early = append(early, universe[i])
		}
	}
	if len(early) == 0 {
		t.Fatal("no fault detected by the first 300 patterns")
	}

	for _, fl := range []struct {
		name    string
		flist   []faults.Fault
		dropped bool
	}{{"universe", universe, false}, {"early", early, true}} {
		for _, n := range []int{1, 63, 64, 65, chunk - 1, chunk, chunk + 1, 3*chunk + 17} {
			want := runApply(prog, fl.flist, patterns[:n], 1, true)
			if !fl.dropped && want.res.NumDetected == len(fl.flist) {
				t.Fatalf("%s, %d patterns: every fault dropped, the chunks after it would pack nothing", fl.name, n)
			}
			if fl.dropped && n > 300 && want.res.NumDetected != len(fl.flist) {
				t.Fatalf("%s, %d patterns: %d of %d faults dropped", fl.name, n, want.res.NumDetected, len(fl.flist))
			}
			for _, w := range []int{1, 2, 4} {
				label := fmt.Sprintf("%s, %d patterns, %d workers", fl.name, n, w)
				got := runApply(prog, fl.flist, patterns[:n], w, false)
				if !slices.Equal(got.res.DetectedBy, want.res.DetectedBy) || got.res.NumDetected != want.res.NumDetected {
					t.Fatalf("%s: detected %d, serial per-batch %d, or a first detector differs",
						label, got.res.NumDetected, want.res.NumDetected)
				}
				if got.patterns != want.patterns {
					t.Fatalf("%s: NumPatterns %d, serial per-batch %d", label, got.patterns, want.patterns)
				}
				if !maps.Equal(got.counters, want.counters) {
					t.Fatalf("%s: counters %v, serial per-batch %v", label, got.counters, want.counters)
				}
				var loads int64
				switch {
				case w == 1:
					loads = want.loads // one per batch simulated
				case fl.dropped:
					loads = 1 // the first chunk only
				default:
					loads = int64((n + chunk - 1) / chunk)
				}
				if got.loads != loads {
					t.Fatalf("%s: faultsim.load observed %d times, want %d", label, got.loads, loads)
				}
			}
		}
	}
}

// BenchmarkApplyPackAhead grades 4,096 patterns on a fresh engine over
// wideCircuit at the pseudo-input widths of the live frames, s13207 (700)
// and SOC2-flat (1532), serially and on two workers. The fault list is 64
// faults the patterns never detect (most of wideCircuit's inverters drive
// nothing), so every batch is packed while the good and detection passes
// stay small: the benchmark times packing, inline per batch against ahead
// on the pool.
func BenchmarkApplyPackAhead(b *testing.B) {
	for _, width := range []int{700, 1532} {
		c := wideCircuit(b, width)
		prog := Compile(c)
		patterns := randomPatterns(rand.New(rand.NewSource(1)), width, 4096)
		flist := runApply(prog, faults.CollapsedUniverse(c), patterns, 1, false).res.UndetectedFaults()
		if len(flist) < 64 {
			b.Fatalf("width %d: %d undetected faults, want 64", width, len(flist))
		}
		flist = flist[:64]
		for _, w := range []int{1, 2} {
			b.Run(fmt.Sprintf("width=%d/workers=%d", width, w), func(b *testing.B) {
				b.SetBytes(int64(len(patterns) * width))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					e := NewEngineFor(prog, flist)
					e.SetWorkers(w)
					e.Apply(patterns)
				}
			})
		}
	}
}
