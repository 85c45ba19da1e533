package atpg

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"repro/internal/faults"
	"repro/internal/faultsim"
	"repro/internal/obs"
	"repro/internal/runctl"
)

// TestFinalAccountingMatchesSimulation checks that the engine-derived
// final accounting equals a fresh fault simulation of the final pattern
// set, for every pinned option set on every stand-in, plus escalation
// without compaction, where the generation engine itself is read after
// the escalation cubes flush.
func TestFinalAccountingMatchesSimulation(t *testing.T) {
	sets := map[string]func(*Options){
		"escalate-nocompact": func(o *Options) { o.Compact = false; o.BacktrackLimit = 2; o.Passes = 3 },
	}
	for label, set := range digestOptionSets {
		sets[label] = set
	}
	for _, name := range []string{"s713", "s953", "s1423", "s5378", "s13207", "s15850"} {
		c := standin(t, name)
		flist := faults.CollapsedUniverse(c)
		for label, set := range sets {
			opts := DefaultOptions()
			set(&opts)
			res := Generate(c, opts)
			sim := faultsim.SimulateWorkers(c, res.Patterns, flist, 1)
			if res.NumDetected != sim.NumDetected || res.Coverage != sim.Coverage() {
				t.Errorf("%s/%s: detected %d (coverage %v), simulation says %d (%v)",
					name, label, res.NumDetected, res.Coverage, sim.NumDetected, sim.Coverage())
			}
		}
	}
}

// TestResumeMidBatch interrupts generation while cubes are queued on the
// engine and not yet flushed, resumes from the checkpoint written at that
// moment, and requires the uninterrupted run's digest. Checkpoints store
// cubes, not engine state, so they need no flush.
//
// With no random phase every main-loop outcome is a target in order, and
// the loop flushes at 64 queued cubes, so after k targets with d of them
// detected, d mod 64 cubes are pending.
func TestResumeMidBatch(t *testing.T) {
	defer runctl.DisarmAll()
	c := standin(t, "s953")
	opts := DefaultOptions()
	opts.RandomPatterns = 0
	full := Generate(c, opts)
	want := resultDigest(full)

	for _, pending := range []int{1, 33, 63, 64 + 2} {
		// The smallest target count k after which `pending` cubes exist.
		k, det := 0, 0
		for det < pending {
			if k == len(full.Outcomes) {
				t.Fatalf("run has %d detections, cannot leave %d cubes pending", det, pending)
			}
			if full.Outcomes[k].Status == Detected {
				det++
			}
			k++
		}
		if det%64 == 0 {
			t.Fatalf("k=%d leaves no cube pending", k)
		}

		path := filepath.Join(t.TempDir(), "atpg.ckpt")
		o := opts
		o.Checkpoint = &CheckpointConfig{Path: path, Every: k}
		runctl.ArmPanic(FPFault, k+1, "interrupted mid-batch")
		part, err := GenerateContext(context.Background(), c, o)
		var pe *runctl.PanicError
		if !errors.As(err, &pe) || !part.Incomplete {
			t.Fatalf("pending %d: interrupted run returned %v", pending, err)
		}
		st, err := loadCheckpoint(path, optionsHash(c, len(faults.CollapsedUniverse(c)), o))
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Cubes) != det {
			t.Fatalf("pending %d: checkpoint holds %d cubes, want %d", pending, len(st.Cubes), det)
		}

		o.Checkpoint.Resume = true
		resumed, err := GenerateContext(context.Background(), c, o)
		if err != nil {
			t.Fatalf("pending %d: resume: %v", pending, err)
		}
		if got := resultDigest(resumed); got != want {
			t.Errorf("pending %d (%d cubes after %d targets): resumed digest %s, want %s", pending, det, k, got, want)
		}
	}
}

// TestPhaseSpansOncePerGenerate checks that every Generate records each of
// its phase spans exactly once, setup and final accounting included.
func TestPhaseSpansOncePerGenerate(t *testing.T) {
	c := standin(t, "s713")
	reg := obs.NewRegistry()
	opts := DefaultOptions()
	opts.Obs = obs.New(reg, nil)
	const runs = 3
	for i := 0; i < runs; i++ {
		Generate(c, opts)
	}
	snap := reg.Snapshot()
	for _, name := range []string{
		"atpg.generate", "atpg.setup", "atpg.phase.random", "atpg.phase.podem",
		"atpg.phase.compact", "atpg.finalize",
	} {
		if got := snap.Timers[name].Count; got != runs {
			t.Errorf("span %s recorded %d times over %d runs", name, got, runs)
		}
	}
}
