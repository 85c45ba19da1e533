package atpg

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/faultsim"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/obs"
)

// The reference implementations below are the compaction steps as they were
// written before batching: one Engine.Apply per pattern for pruning, an
// insertion sort and byte-wise compatible for merging, and a fresh engine
// re-simulating the whole set on every top-up round. They exist only as
// oracles for the differential tests in this file.

func reversePruneSerial(c *netlist.Circuit, flist []faults.Fault, patterns []logic.Cube, workers int) []logic.Cube {
	e := faultsim.NewEngine(c, flist)
	e.SetWorkers(workers)
	var keptRev []logic.Cube
	for i := len(patterns) - 1; i >= 0; i-- {
		if e.Apply([]logic.Cube{patterns[i]}) > 0 {
			keptRev = append(keptRev, patterns[i])
		}
	}
	kept := make([]logic.Cube, len(keptRev))
	for i, p := range keptRev {
		kept[len(keptRev)-1-i] = p
	}
	return kept
}

func mergeCubesInsertion(cubes []logic.Cube) []logic.Cube {
	order := make([]int, len(cubes))
	for i := range order {
		order[i] = i
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && cubes[order[j]].Specified() > cubes[order[j-1]].Specified(); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	var merged []logic.Cube
	for _, idx := range order {
		c := cubes[idx]
		placed := false
		for i := range merged {
			if compatible(merged[i], c) {
				mergeInto(merged[i], c)
				placed = true
				break
			}
		}
		if !placed {
			merged = append(merged, c.Clone())
		}
	}
	return merged
}

// compatible reports whether c and d can be merged, one value at a time:
// they have equal length and no position holds two different binary
// values (paper, Section 3: "Non-conflicting values are the same logic
// values, or different logic values one of which is X").
func compatible(c, d logic.Cube) bool {
	if len(c) != len(d) {
		return false
	}
	for i, v := range c {
		w := d[i]
		if v.Binary() && w.Binary() && v != w {
			return false
		}
	}
	return true
}

// mergeInto merges the compatible d into c in place: every position
// where c is not binary takes d's binary value.
func mergeInto(c, d logic.Cube) {
	for i, w := range d {
		if !c[i].Binary() && w.Binary() {
			c[i] = w
		}
	}
}

func topUpFresh(ctx context.Context, c *netlist.Circuit, flist []faults.Fault, workers int,
	patterns []logic.Cube, retarget func(faults.Fault) (logic.Cube, bool)) ([]logic.Cube, error) {
	for iter := 0; iter < 3; iter++ {
		if err := ctx.Err(); err != nil {
			return patterns, err
		}
		check := faultsim.NewEngine(c, flist)
		check.SetWorkers(workers)
		check.Apply(patterns)
		missing := 0
		for _, f := range check.Remaining() {
			if p, ok := retarget(f); ok {
				patterns = append(patterns, p)
				missing++
			}
		}
		if missing == 0 {
			break
		}
	}
	return patterns, nil
}

func randomPatterns(r *rand.Rand, n, width int) []logic.Cube {
	out := make([]logic.Cube, n)
	for i := range out {
		p := make(logic.Cube, width)
		for j := range p {
			p[j] = logic.FromBool(r.Intn(2) == 1)
		}
		out[i] = p
	}
	return out
}

// pruneFresh runs reversePrune on a fresh engine over flist.
func pruneFresh(c *netlist.Circuit, flist []faults.Fault, patterns []logic.Cube, workers int) ([]logic.Cube, *faultsim.Engine) {
	e := faultsim.NewEngine(c, flist)
	e.SetWorkers(workers)
	return reversePrune(e, patterns), e
}

// sameRemaining asserts e's remaining faults equal those of a fresh engine
// that applied only the given patterns.
func sameRemaining(t *testing.T, label string, c *netlist.Circuit, flist []faults.Fault, e *faultsim.Engine, patterns []logic.Cube) {
	t.Helper()
	fresh := faultsim.NewEngine(c, flist)
	fresh.Apply(patterns)
	got, want := e.Remaining(), fresh.Remaining()
	if len(got) != len(want) {
		t.Fatalf("%s: engine has %d remaining faults, kept set leaves %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: remaining fault %d is %v, kept set leaves %v", label, i, got[i], want[i])
		}
	}
}

// TestReversePruneMatchesSerial holds the one-Apply pruning against the
// pattern-at-a-time reference across the 64-pattern word boundaries, on
// duplicate-heavy sets and on sets where most patterns detect nothing new.
// It prunes on an instrumented engine that has applied the set and holds
// a queued cube, as the generation engine it reuses does: the reset must
// forget both, and the prune must not reach the collector.
func TestReversePruneMatchesSerial(t *testing.T) {
	circuits := map[string]*netlist.Circuit{
		"c17":  mustParse(t, "c17", c17Bench),
		"s713": standin(t, "s713"),
	}
	for name, c := range circuits {
		width := len(c.PseudoInputs())
		full := faults.CollapsedUniverse(c)
		for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
			r := rand.New(rand.NewSource(int64(n) + 1))
			distinct := randomPatterns(r, n, width)
			// Duplicates: each pattern drawn from a pool of at most 5, so
			// every repeat detects nothing new.
			pool := randomPatterns(r, 5, width)
			dups := make([]logic.Cube, n)
			for i := range dups {
				dups[i] = pool[r.Intn(len(pool))]
			}
			cases := []struct {
				label    string
				flist    []faults.Fault
				patterns []logic.Cube
			}{
				{"distinct", full, distinct},
				{"duplicates", full, dups},
				// A three-fault list leaves most patterns detecting nothing.
				{"few-faults", full[:3], distinct},
				{"no-faults", nil, distinct},
			}
			for _, tc := range cases {
				for _, workers := range []int{1, 2} {
					label := name + "/" + tc.label
					want := reversePruneSerial(c, tc.flist, tc.patterns, workers)
					e := faultsim.NewEngine(c, tc.flist)
					e.SetWorkers(workers)
					reg := obs.NewRegistry()
					e.Instrument(obs.New(reg, nil))
					e.Apply(tc.patterns)
					if n > 0 {
						e.Queue(tc.patterns[0])
					}
					before := reg.Snapshot().Counters
					got := reversePrune(e, tc.patterns)
					if after := reg.Snapshot().Counters; !reflect.DeepEqual(after, before) {
						t.Fatalf("%s n=%d workers=%d: the prune moved the counters %v to %v", label, n, workers, before, after)
					}
					if !patternsEqual(got, want) {
						t.Fatalf("%s n=%d workers=%d: kept %d patterns, reference kept %d",
							label, n, workers, len(got), len(want))
					}
					sameRemaining(t, label, c, tc.flist, e, got)
				}
			}
		}
	}
}

func randomCubes(r *rand.Rand, n, width int, xRate float64) []logic.Cube {
	out := make([]logic.Cube, n)
	for i := range out {
		cb := make(logic.Cube, width)
		for j := range cb {
			switch {
			case r.Float64() < xRate:
				cb[j] = logic.X
			case r.Intn(2) == 1:
				cb[j] = logic.One
			default:
				cb[j] = logic.Zero
			}
		}
		out[i] = cb
	}
	return out
}

// TestMergeCubesMatchesInsertion holds the packed-word merge against the
// insertion-sort reference for cube widths below, at and above one word.
func TestMergeCubesMatchesInsertion(t *testing.T) {
	for _, width := range []int{1, 7, 63, 64, 65, 128, 130} {
		for _, n := range []int{0, 1, 2, 17, 120} {
			for _, xRate := range []float64{0.5, 0.9, 0.98} {
				r := rand.New(rand.NewSource(int64(width*1000 + n)))
				cubes := randomCubes(r, n, width, xRate)
				in := make([]logic.Cube, n)
				for i, cb := range cubes {
					in[i] = cb.Clone()
				}
				want := mergeCubesInsertion(cubes)
				got := mergeCubes(cubes)
				if !patternsEqual(got, want) {
					t.Fatalf("width=%d n=%d x=%.2f: %d merged cubes, reference %d",
						width, n, xRate, len(got), len(want))
				}
				if !patternsEqual(cubes, in) {
					t.Fatalf("width=%d n=%d: mergeCubes modified its input", width, n)
				}
			}
		}
	}
	// Cubes of different widths never merge.
	mixed := []logic.Cube{logic.NewCube(3), logic.NewCube(70), logic.NewCube(3)}
	if got, want := mergeCubes(mixed), mergeCubesInsertion(mixed); !patternsEqual(got, want) {
		t.Fatalf("mixed widths: %v, reference %v", got, want)
	}
}

// FuzzMergeCubes decodes arbitrary bytes into cubes of arbitrary widths
// over all five logic values and requires the packed merge to reproduce
// the reference exactly.
func FuzzMergeCubes(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2, 3, 2, 1, 0, 3, 2, 2, 0})
	f.Add([]byte{65, 1, 2, 2, 0, 1, 65, 2, 2, 2, 1})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var cubes []logic.Cube
		for len(data) > 0 && len(cubes) < 64 {
			width := int(data[0]) % 140
			data = data[1:]
			cb := make(logic.Cube, width)
			for j := range cb {
				if len(data) == 0 {
					cb[j] = logic.X
					continue
				}
				// Mostly X, so cubes stay mergeable.
				v := data[0] % 8
				data = data[1:]
				if v > 4 {
					v = 2
				}
				cb[j] = logic.V(v)
			}
			cubes = append(cubes, cb)
		}
		want := mergeCubesInsertion(cubes)
		got := mergeCubes(cubes)
		if !patternsEqual(got, want) {
			t.Fatalf("%d cubes: merged %v, reference %v", len(cubes), got, want)
		}
	})
}

// newRetarget returns a fresh top-up retarget function with its own PODEM,
// fill RNG and failed-fault memory, mirroring the generator's.
func newRetarget(c *netlist.Circuit) func(faults.Fault) (logic.Cube, bool) {
	pd := newPodem(faultsim.Compile(c), 100, nil)
	rng := rand.New(rand.NewSource(7))
	failed := make(map[faults.Fault]bool)
	return func(f faults.Fault) (logic.Cube, bool) {
		if failed[f] {
			return nil, false
		}
		cube, status := pd.run(f)
		if status != Detected {
			failed[f] = true
			return nil, false
		}
		return cube.Fill(func(int) logic.V {
			return logic.FromBool(rng.Intn(2) == 1)
		}), true
	}
}

// TestTopUpMatchesFreshEngine holds the incremental top-up against the
// reference that re-simulates the whole set on a fresh engine each round,
// on sets small enough that the loop appends patterns.
func TestTopUpMatchesFreshEngine(t *testing.T) {
	for _, name := range []string{"s713", "s953"} {
		c := standin(t, name)
		flist := faults.CollapsedUniverse(c)
		width := len(c.PseudoInputs())
		for _, n := range []int{0, 1, 8, 70} {
			r := rand.New(rand.NewSource(int64(n)))
			pruned, check := pruneFresh(c, flist, randomPatterns(r, n, width), 1)
			base := append([]logic.Cube(nil), pruned...)

			want, err := topUpFresh(context.Background(), c, flist, 1, base, newRetarget(c))
			if err != nil {
				t.Fatal(err)
			}
			got, err := topUp(context.Background(), check, pruned, newRetarget(c))
			if err != nil {
				t.Fatal(err)
			}
			if len(got) <= len(pruned) {
				t.Fatalf("%s n=%d: top-up appended nothing; the test needs a lossy set", name, n)
			}
			if !patternsEqual(got, want) {
				t.Fatalf("%s n=%d: top-up produced %d patterns, reference %d", name, n, len(got), len(want))
			}
			if sim := faultsim.SimulateWorkers(c, got, flist, 1); check.DetectedCount() != sim.NumDetected {
				t.Fatalf("%s n=%d: check engine detected %d, the set detects %d", name, n, check.DetectedCount(), sim.NumDetected)
			}
		}
	}
}

// TestTopUpAppliesLastRound forces all three top-up rounds — the retarget
// answers every fault with a random pattern, which rarely detects it — and
// checks the engine has applied the final round's patterns too, so final
// accounting may read it.
func TestTopUpAppliesLastRound(t *testing.T) {
	c := standin(t, "s713")
	flist := faults.CollapsedUniverse(c)
	width := len(c.PseudoInputs())
	r := rand.New(rand.NewSource(3))
	pruned, check := pruneFresh(c, flist, randomPatterns(r, 4, width), 1)
	rounds := map[int]bool{}
	got, err := topUp(context.Background(), check, pruned, func(faults.Fault) (logic.Cube, bool) {
		rounds[check.NumPatterns()] = true
		return randomPatterns(r, 1, width)[0], true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) != 3 {
		t.Fatalf("top-up ran %d rounds, the test needs 3", len(rounds))
	}
	if check.NumPatterns() != len(got) {
		t.Fatalf("check engine applied %d of %d patterns", check.NumPatterns(), len(got))
	}
	if sim := faultsim.SimulateWorkers(c, got, flist, 1); check.DetectedCount() != sim.NumDetected {
		t.Fatalf("check engine detected %d, the set detects %d", check.DetectedCount(), sim.NumDetected)
	}
}

// TestTopUpCancelled checks the incremental top-up stops on a cancelled
// context before retargeting anything, like the reference.
func TestTopUpCancelled(t *testing.T) {
	c := standin(t, "s713")
	flist := faults.CollapsedUniverse(c)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, check := pruneFresh(c, flist, nil, 1)
	calls := 0
	_, err := topUp(ctx, check, nil, func(faults.Fault) (logic.Cube, bool) {
		calls++
		return nil, false
	})
	if err == nil || calls != 0 {
		t.Fatalf("cancelled top-up: err %v after %d retargets", err, calls)
	}
}
