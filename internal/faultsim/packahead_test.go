package faultsim

import (
	"fmt"
	"maps"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/logic"
	"repro/internal/netlist"
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
// perBatch is set. It fails t if a goroutine the grading started is still
// running a second after it returned.
func runApply(t testing.TB, prog *Program, flist []faults.Fault, patterns []logic.Cube, workers int, perBatch bool) applyRun {
	t.Helper()
	reg := obs.NewRegistry()
	e := NewEngineFor(prog, flist)
	e.Instrument(obs.New(reg, nil))
	e.SetWorkers(workers)
	before := runtime.NumGoroutine()
	if perBatch {
		for off := 0; off < len(patterns); off += wordBits {
			e.Apply(patterns[off:min(off+wordBits, len(patterns))])
		}
	} else {
		e.Apply(patterns)
	}
	// A finished worker may still be on its way out: give it a moment.
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d workers, %d patterns: %d goroutines outlive Apply", workers, len(patterns), runtime.NumGoroutine()-before)
		}
	}
	snap := reg.Snapshot()
	return applyRun{e.Result(), e.NumPatterns(), snap.Counters, snap.Timers["faultsim.load"].Count}
}

// detectedBefore returns the faults of flist that the reference run
// detects before pattern p.
func detectedBefore(flist []faults.Fault, ref applyRun, p int) []faults.Fault {
	var out []faults.Fault
	for i, d := range ref.res.DetectedBy {
		if d != Undetected && d < p {
			out = append(out, flist[i])
		}
	}
	return out
}

// TestApplyPackAheadMatchesSerial holds Apply at 1, 2 and 4 workers to one
// Apply per 64 patterns on a serial engine: the same Result, pattern count
// and faultsim.* counters, at pattern counts around one batch and around
// the chunk, over cubes with X and arbitrary bytes. Where more than one
// CPU runs, a multi-worker Apply packs chunk k+1 while it simulates chunk
// k, and faultsim.load observes once per chunk simulated; elsewhere every
// engine packs, and observes, per batch. Three fault lists: the whole
// universe, one that the first chunk drops entirely, and one whose last
// fault drops mid-way through the second chunk, while the third is being
// packed. No goroutine may outlive an Apply.
func TestApplyPackAheadMatchesSerial(t *testing.T) {
	c := standinCircuit(t, "s713")
	prog := Compile(c)
	chunk := packChunk * wordBits
	r := rand.New(rand.NewSource(32))
	patterns := byteCubes(r, len(c.PseudoInputs()), 3*chunk+17)
	universe := faults.CollapsedUniverse(c)
	ref := runApply(t, prog, universe, patterns, 1, true)

	// The faults the first 300 patterns detect all drop in the fifth batch
	// of the first chunk or earlier. mid holds those the first chunk and a
	// half detect, and the last of them drops in the second chunk.
	early := detectedBefore(universe, ref, 300)
	mid := detectedBefore(universe, ref, chunk+chunk/2)
	if len(early) == 0 {
		t.Fatal("no fault detected by the first 300 patterns")
	}
	if len(detectedBefore(universe, ref, chunk)) == len(mid) {
		t.Fatal("no fault first detected mid-way through the second chunk")
	}

	for _, fl := range []struct {
		name  string
		flist []faults.Fault
		last  int // the pattern count past which every fault has dropped, or 0
	}{{"universe", universe, 0}, {"early", early, 300}, {"mid", mid, chunk + chunk/2}} {
		for _, n := range []int{1, 63, 64, 65, chunk - 1, chunk, chunk + 1, 3*chunk + 17} {
			want := runApply(t, prog, fl.flist, patterns[:n], 1, true)
			if fl.last == 0 && want.res.NumDetected == len(fl.flist) {
				t.Fatalf("%s, %d patterns: every fault dropped, the chunks after it would pack nothing", fl.name, n)
			}
			if fl.last > 0 && n > fl.last && want.res.NumDetected != len(fl.flist) {
				t.Fatalf("%s, %d patterns: %d of %d faults dropped", fl.name, n, want.res.NumDetected, len(fl.flist))
			}
			// The chunks that start with a fault remaining are simulated.
			var chunks int64
			for start := 0; start < n; start += chunk {
				if len(detectedBefore(fl.flist, want, start)) < len(fl.flist) {
					chunks++
				}
			}
			for _, w := range []int{1, 2, 4} {
				label := fmt.Sprintf("%s, %d patterns, %d workers", fl.name, n, w)
				got := runApply(t, prog, fl.flist, patterns[:n], w, false)
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
				loads := want.loads // one per batch simulated
				if w > 1 && n > wordBits && runtime.GOMAXPROCS(0) > 1 {
					loads = chunks
				}
				if got.loads != loads {
					t.Fatalf("%s: faultsim.load observed %d times, want %d", label, got.loads, loads)
				}
			}
		}
	}
}

// mallocs returns the fewest heap allocations f made in three runs.
func mallocs(f func()) uint64 {
	var fewest uint64
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; i == 0 || n < fewest {
			fewest = n
		}
	}
	return fewest
}

// TestApplyPackAheadAllocationsPerCall: a warm two-worker Apply allocates
// per call, not per chunk, so four chunks allocate no more than two. Where
// more than one CPU runs it packs ahead (the pool, its channels and the
// first chunk's fan-out are per call); elsewhere it packs inline and
// allocates nothing. The fault list stays under minShardRoots, so no batch
// fans out its root propagation. testing.AllocsPerRun would run it at
// GOMAXPROCS 1, so the heap counters are read directly.
func TestApplyPackAheadAllocationsPerCall(t *testing.T) {
	c := standinCircuit(t, "s1423")
	chunk := packChunk * wordBits
	patterns := randomPatterns(rand.New(rand.NewSource(33)), len(c.PseudoInputs()), 4*chunk)
	// Faults the first 64 patterns miss: some drop during the warm-up,
	// some remain.
	first := NewEngine(c, faults.CollapsedUniverse(c))
	first.Apply(patterns[:wordBits])
	flist := first.Remaining()
	flist = flist[:min(len(flist), minShardRoots-1)]
	e := NewEngine(c, flist)
	e.SetWorkers(2)
	e.Apply(patterns) // warm
	if len(e.remaining) == 0 {
		t.Fatal("every fault dropped: the measured Apply runs would pack nothing")
	}
	two, four := mallocs(func() { e.Apply(patterns[:2*chunk]) }), mallocs(func() { e.Apply(patterns) })
	if four > two {
		t.Errorf("warm two-worker Apply: %d allocations over four chunks, %d over two", four, two)
	}
	if runtime.GOMAXPROCS(0) == 1 && four != 0 {
		t.Errorf("warm two-worker Apply on one CPU: %d allocations, want 0", four)
	}
}

// BenchmarkApplyPackAhead grades 4,096 patterns on a fresh engine over
// wideCircuit at the pseudo-input widths of the live frames, s13207 (700)
// and SOC2-flat (1532), with a dangling AND gate over every pseudo input,
// serially and on two workers. The fault list is 64 faults the patterns
// never detect: the AND's stuck-at-0, whose region reads every pseudo
// input, and 63 on inverters that drive nothing. So every group of every
// batch is packed (live-groups reports the share, 1) while the good and
// detection passes stay small: the benchmark times packing, inline per
// batch against ahead on the pool.
func BenchmarkApplyPackAhead(b *testing.B) {
	for _, width := range []int{700, 1532} {
		c := buildWide(b, width, true)
		prog := Compile(c)
		patterns := randomPatterns(rand.New(rand.NewSource(1)), width, 4096)
		id, _ := c.Lookup("sink")
		sink := faults.Fault{Gate: id, Pin: faults.StemPin, Stuck: logic.Zero}
		var inverters []faults.Fault
		for _, f := range faults.CollapsedUniverse(c) {
			if c.Gate(f.Gate).Type == netlist.Not {
				inverters = append(inverters, f)
			}
		}
		flist := []faults.Fault{sink}
		for _, f := range runApply(b, prog, inverters, patterns, 1, false).res.UndetectedFaults() {
			if len(flist) < 64 {
				flist = append(flist, f)
			}
		}
		if len(flist) < 64 {
			b.Fatalf("width %d: %d undetected faults, want 64", width, len(flist))
		}
		probe := NewEngineFor(prog, flist)
		probe.Apply(patterns)
		if probe.DetectedCount() != 0 {
			b.Fatalf("width %d: the patterns detect %d of the faults", width, probe.DetectedCount())
		}
		live := 0
		for _, w := range probe.groups {
			live += bits.OnesCount64(w)
		}
		share := float64(live) / float64((width+7)/8)
		for _, w := range []int{1, 2} {
			b.Run(fmt.Sprintf("width=%d/workers=%d", width, w), func(b *testing.B) {
				b.SetBytes(int64(len(patterns) * width))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					e := NewEngineFor(prog, flist)
					e.SetWorkers(w)
					e.Apply(patterns)
				}
				b.ReportMetric(share, "live-groups")
			})
		}
	}
}

// TestApplyPackAheadSizesToBatches holds a two-worker Apply of k batches,
// k under two chunks, to at most k batches of packed words: where more
// than one CPU runs it packs ahead into exactly k batches, elsewhere into
// the one batch a fresh engine holds.
func TestApplyPackAheadSizesToBatches(t *testing.T) {
	c := standinCircuit(t, "s1423")
	n := len(c.PseudoInputs())
	flist := faults.CollapsedUniverse(c)
	for _, k := range []int{2, 4, packChunk - 1, packChunk, packChunk + 1, 2*packChunk - 1} {
		e := NewEngine(c, flist)
		e.SetWorkers(2)
		e.Apply(randomPatterns(rand.New(rand.NewSource(int64(k))), n, k*wordBits))
		want := n
		if runtime.GOMAXPROCS(0) > 1 {
			want = k * n
		}
		if len(e.packed) != want {
			t.Errorf("%d batches on two workers: %d words packed, want %d (%d batches of %d)", k, len(e.packed), want, want/n, n)
		}
	}
}

// TestResetMatchesFreshEngine grades a second pattern set on an engine
// reset after an instrumented Apply and a Queue: it must leave the result
// of a fresh engine, serially and on two workers, with nothing pending
// and its former collector untouched.
func TestResetMatchesFreshEngine(t *testing.T) {
	c := standinCircuit(t, "s713")
	width := len(c.PseudoInputs())
	flist := faults.CollapsedUniverse(c)
	r := rand.New(rand.NewSource(7))
	first, second := randomPatterns(r, width, 200), randomPatterns(r, width, 150)
	fresh := NewEngine(c, flist)
	fresh.Apply(second)
	for _, w := range []int{1, 2} {
		reg := obs.NewRegistry()
		e := NewEngine(c, flist)
		e.SetWorkers(w)
		e.Instrument(obs.New(reg, nil))
		e.Apply(first)
		e.Queue(second[0])
		before := reg.Snapshot().Counters
		e.Reset()
		e.Apply(second)
		if got, want := e.Result(), fresh.Result(); !slices.Equal(got.DetectedBy, want.DetectedBy) || got.NumDetected != want.NumDetected {
			t.Errorf("workers=%d: reset engine detects %d faults, a fresh one %d, or at other patterns", w, got.NumDetected, want.NumDetected)
		}
		if e.NumPatterns() != len(second) || e.Pending() != 0 {
			t.Errorf("workers=%d: %d patterns applied and %d pending after the reset, want %d and 0", w, e.NumPatterns(), e.Pending(), len(second))
		}
		if after := reg.Snapshot().Counters; !maps.Equal(after, before) {
			t.Errorf("workers=%d: the reset engine still counts into its former collector: %v, was %v", w, after, before)
		}
	}
}
