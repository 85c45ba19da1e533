package faultsim

import (
	"math/rand"
	"testing"

	"repro/internal/faults"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// xLanes are the lanes whose cubes carry X bits in the pending-batch
// tests: both ends of the word, where lane masks and shifts go wrong.
var xLanes = []int{0, 1, 62, 63}

// allLanes lists every lane of a batch.
var allLanes = func() []int {
	out := make([]int, 64)
	for k := range out {
		out[k] = k
	}
	return out
}()

// standinNames are the six bench89 stand-ins.
var standinNames = []string{"s713", "s953", "s1423", "s5378", "s13207", "s15850"}

// laneCubes returns 64 random cubes; those in xLanes have about a third of
// their bits X.
func laneCubes(r *rand.Rand, width int) []logic.Cube {
	cubes := randomPatterns(r, width, 64)
	for _, k := range xLanes {
		for j := range cubes[k] {
			if r.Intn(3) == 0 {
				cubes[k][j] = logic.X
			}
		}
	}
	return cubes
}

// TestQueuedDetectsMatchesSerial fills a pending batch with 64 cubes and
// checks QueuedDetects for every collapsed fault of every fixture and
// stand-in: each lane against a fresh engine's Apply of that lane's cube
// alone, and against the serial reference SerialSimulate — on the fixtures
// every lane, on the stand-ins (where one serial check costs a full
// faulty-circuit evaluation) one X lane per fault, cycling through xLanes.
// Two more engines queue the same cubes and must answer alike for every
// fault, though Queue evaluates only their live region: one with no fault
// list, as SettleAborted builds, and one whose earlier Apply dropped faults.
func TestQueuedDetectsMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	fixtures := fixtureCircuits(t)
	circuits := make(map[string]*netlist.Circuit, len(fixtures)+len(standinNames))
	for name, c := range fixtures {
		circuits[name] = c
	}
	for _, name := range standinNames {
		circuits[name] = standinCircuit(t, name)
	}
	for name, c := range circuits {
		flist := faults.CollapsedUniverse(c)
		cubes := laneCubes(r, len(c.PseudoInputs()))
		prog := Compile(c)
		e := NewEngineFor(prog, flist)
		for k, cube := range cubes {
			if lane := e.Queue(cube); lane != k {
				t.Fatalf("%s: cube %d queued in lane %d", name, k, lane)
			}
		}
		got := make([]uint64, len(flist))
		for i, f := range flist {
			got[i] = e.QueuedDetects(f)
		}
		_, fixture := fixtures[name]
		for k, cube := range cubes {
			fresh := NewEngineFor(prog, flist)
			fresh.Apply([]logic.Cube{cube})
			det := fresh.Result().DetectedBy
			for i, f := range flist {
				if bit := got[i]>>uint(k)&1 == 1; bit != (det[i] == 0) {
					t.Fatalf("%s: fault %s lane %d: QueuedDetects %v, Apply %v", name, f.String(c), k, bit, det[i] == 0)
				}
			}
		}
		// The serial leg checks each lane's faults with one SerialSimulate
		// call, so the good circuit is evaluated once per lane, not once
		// per (fault, lane) pair.
		for _, k := range allLanes {
			var idx []int
			for i := range flist {
				if fixture || xLanes[i%len(xLanes)] == k {
					idx = append(idx, i)
				}
			}
			if len(idx) == 0 {
				continue
			}
			laneFaults := make([]faults.Fault, len(idx))
			for j, i := range idx {
				laneFaults[j] = flist[i]
			}
			want := SerialSimulate(c, []logic.Cube{cubes[k]}, laneFaults).DetectedBy
			for j, i := range idx {
				if bit := got[i]>>uint(k)&1 == 1; bit != (want[j] == 0) {
					t.Fatalf("%s: fault %s lane %d: QueuedDetects %v, SerialSimulate %v", name, flist[i].String(c), k, bit, !bit)
				}
			}
		}
		if e.DetectedCount() != 0 || e.NumPatterns() != 0 {
			t.Fatalf("%s: queueing changed the engine state", name)
		}

		bare, dropped := NewEngineFor(prog, nil), NewEngineFor(prog, flist)
		if dropped.Apply(randomPatterns(r, len(c.PseudoInputs()), 8)) == 0 {
			t.Fatalf("%s: the earlier Apply dropped no fault", name)
		}
		for _, cube := range cubes {
			bare.Queue(cube)
			dropped.Queue(cube)
		}
		for i, f := range flist {
			if w := bare.QueuedDetects(f); w != got[i] {
				t.Fatalf("%s: fault %s: QueuedDetects %#x on an engine with no faults, %#x", name, f.String(c), w, got[i])
			}
			if w := dropped.QueuedDetects(f); w != got[i] {
				t.Fatalf("%s: fault %s (dropped: %v): QueuedDetects %#x after an Apply, %#x",
					name, f.String(c), dropped.Result().DetectedBy[i] != Undetected, w, got[i])
			}
		}
	}
}

// TestFlushMatchesEagerApply queues 150 cubes (flushing each full batch
// and the tail) and checks the engine ends in exactly the state of one
// that applied every cube with its own Apply call: same first detectors,
// same pattern count.
func TestFlushMatchesEagerApply(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for _, name := range []string{"s713", "s1423"} {
		c := standinCircuit(t, name)
		flist := faults.CollapsedUniverse(c)
		prog := Compile(c)
		lazy, eager := NewEngineFor(prog, flist), NewEngineFor(prog, flist)
		prefix := randomPatterns(r, len(c.PseudoInputs()), 5)
		lazy.Apply(prefix)
		eager.Apply(prefix)
		for _, cube := range randomPatterns(r, len(c.PseudoInputs()), 150) {
			lazy.Queue(cube)
			if lazy.Pending() == 64 {
				lazy.Flush()
			}
			eager.Apply([]logic.Cube{cube})
		}
		lazy.Flush()
		if lazy.Pending() != 0 || lazy.QueuedDetects(flist[0]) != 0 {
			t.Fatalf("%s: Flush left cubes pending", name)
		}
		if lazy.NumPatterns() != eager.NumPatterns() {
			t.Fatalf("%s: %d patterns, want %d", name, lazy.NumPatterns(), eager.NumPatterns())
		}
		compareDetections(t, name+"/flush-vs-eager", c, flist, lazy.Result(), eager.Result())
	}
}

// TestUnqueueFreesLane checks that a withdrawn cube leaves no trace: after
// Queue(a), Unqueue, Queue(b), every fault's QueuedDetects equals that of
// an engine that only ever queued b, and b reuses a's lane.
func TestUnqueueFreesLane(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	c := standinCircuit(t, "s953")
	flist := faults.CollapsedUniverse(c)
	prog := Compile(c)
	cubes := laneCubes(r, len(c.PseudoInputs()))
	e, want := NewEngineFor(prog, nil), NewEngineFor(prog, nil)
	for _, cube := range cubes[:63] {
		e.Queue(cube)
		want.Queue(cube)
	}
	e.Queue(randomPatterns(r, len(c.PseudoInputs()), 1)[0])
	e.Unqueue()
	if lane := e.Queue(cubes[63]); lane != 63 {
		t.Fatalf("requeued cube got lane %d, want 63", lane)
	}
	want.Queue(cubes[63])
	for _, f := range flist {
		if got, w := e.QueuedDetects(f), want.QueuedDetects(f); got != w {
			t.Fatalf("fault %s: QueuedDetects %#x after Unqueue, want %#x", f.String(c), got, w)
		}
	}
}

// TestNextRemaining walks the remaining list by index after a partial
// Apply and checks it visits exactly the undetected faults, in order.
func TestNextRemaining(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	c := standinCircuit(t, "s713")
	flist := faults.CollapsedUniverse(c)
	e := NewEngine(c, flist)
	e.Apply(randomPatterns(r, len(c.PseudoInputs()), 8))
	var got []int
	for i := e.NextRemaining(0); i >= 0; i = e.NextRemaining(i + 1) {
		got = append(got, i)
	}
	var want []int
	for i, d := range e.Result().DetectedBy {
		if d == Undetected {
			want = append(want, i)
		}
	}
	if len(got) != len(want) || len(want) == 0 || len(want) == len(flist) {
		t.Fatalf("walked %d remaining faults, want %d of %d", len(got), len(want), len(flist))
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("remaining fault %d is index %d, want %d", k, got[k], want[k])
		}
	}
	if e.NextRemaining(len(flist)) != -1 {
		t.Error("NextRemaining past the end did not return -1")
	}
}
