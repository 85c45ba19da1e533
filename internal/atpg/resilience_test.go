package atpg

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench89"
	"repro/internal/faults"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/runctl"
)

// afterNCtx is a context whose Err trips to err after n calls —
// deterministic mid-run cancellation without sleeping in tests.
type afterNCtx struct {
	context.Context
	n   atomic.Int64
	err error
}

func cancelAfter(n int64) *afterNCtx { return errAfter(n, context.Canceled) }

// deadlineAfter is cancelAfter reporting an expired deadline instead, so a
// deadline test does not depend on how fast generation runs.
func deadlineAfter(n int64) *afterNCtx { return errAfter(n, context.DeadlineExceeded) }

func errAfter(n int64, err error) *afterNCtx {
	c := &afterNCtx{Context: context.Background(), err: err}
	c.n.Store(n)
	return c
}

func (c *afterNCtx) Err() error {
	if c.n.Add(-1) < 0 {
		return c.err
	}
	return nil
}

func standin(t testing.TB, name string) *netlist.Circuit {
	t.Helper()
	prof, ok := bench89.ProfileByName(name)
	if !ok {
		t.Fatalf("unknown stand-in %q", name)
	}
	c, err := bench89.Generate(prof)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func patternsEqual(a, b []logic.Cube) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			return false
		}
	}
	return true
}

func TestGenerateContextComplete(t *testing.T) {
	c := mustParse(t, "c17", c17Bench)
	res, err := GenerateContext(context.Background(), c, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Incomplete {
		t.Error("uncancelled run marked incomplete")
	}
	want := Generate(c, DefaultOptions())
	if !patternsEqual(res.Patterns, want.Patterns) {
		t.Error("GenerateContext diverged from Generate")
	}
}

func TestGenerateContextNotFinalized(t *testing.T) {
	c := netlist.New("raw")
	c.MustAddGate("a", netlist.Input)
	if _, err := GenerateContext(context.Background(), c, DefaultOptions()); err == nil {
		t.Fatal("non-finalized circuit accepted")
	}
}

func TestCancellationMidGeneration(t *testing.T) {
	c := standin(t, "s953")
	ctx := cancelAfter(10)
	res, err := GenerateContext(ctx, c, DefaultOptions())
	if err == nil {
		t.Fatal("cancelled run returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if !runctl.IsCancel(err) {
		t.Fatalf("IsCancel false for %v", err)
	}
	if res == nil {
		t.Fatal("cancelled run returned nil result")
	}
	// The partial result must be internally consistent: marked incomplete,
	// patterns filled and authoritatively fault-simulated.
	if !res.Incomplete {
		t.Error("partial result not marked Incomplete")
	}
	if len(res.Patterns) != len(res.Cubes) {
		t.Errorf("partial patterns %d != cubes %d (zero-fill must be 1:1)", len(res.Patterns), len(res.Cubes))
	}
	if res.Coverage < 0 || res.Coverage > 1 {
		t.Errorf("partial coverage %v out of range", res.Coverage)
	}
	if res.NumDetected == 0 || res.Coverage == 0 {
		t.Error("partial result lost the work done before cancellation")
	}
	full, err := GenerateContext(context.Background(), c, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.NumDetected > full.NumDetected {
		t.Errorf("partial detected %d > full %d", res.NumDetected, full.NumDetected)
	}
}

func TestCancelledBeforeStart(t *testing.T) {
	c := standin(t, "s953")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := GenerateContext(ctx, c, DefaultOptions())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v", err)
	}
	if res == nil || !res.Incomplete {
		t.Fatal("pre-cancelled run must still return a consistent empty partial result")
	}
}

func TestDeadlineExceeded(t *testing.T) {
	c := standin(t, "s1423")
	res, err := GenerateContext(deadlineAfter(10), c, DefaultOptions())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v", err)
	}
	if res == nil || !res.Incomplete {
		t.Fatal("deadline-exceeded run did not return a partial result")
	}
	if res.NumDetected == 0 {
		t.Error("deadline-exceeded run lost the work done before the deadline")
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	c := standin(t, "s953")
	path := filepath.Join(t.TempDir(), "atpg.ckpt")
	opts := DefaultOptions()
	opts.Checkpoint = &CheckpointConfig{Path: path, Every: 8}
	res, err := GenerateContext(context.Background(), c, opts)
	if err != nil {
		t.Fatal(err)
	}
	hash := optionsHash(c, len(faults.CollapsedUniverse(c)), opts)
	st, err := loadCheckpoint(path, hash)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Complete {
		t.Error("final checkpoint not marked complete")
	}
	cubes, outcomes, failed, err := st.restore(path, len(c.PseudoInputs()))
	if err != nil {
		t.Fatal(err)
	}
	if len(cubes) != len(res.Cubes) {
		t.Errorf("restored %d cubes, run produced %d", len(cubes), len(res.Cubes))
	}
	for i := range cubes {
		if cubes[i].String() != res.Cubes[i].String() {
			t.Fatalf("cube %d changed across the round trip", i)
		}
	}
	if len(outcomes) != len(res.Outcomes) {
		t.Errorf("restored %d outcomes, run recorded %d", len(outcomes), len(res.Outcomes))
	}
	for f, s := range failed {
		if s != Redundant && s != Aborted {
			t.Errorf("failed map holds %s with status %v", f.String(c), s)
		}
	}
}

func TestCheckpointCorruptRejected(t *testing.T) {
	c := mustParse(t, "c17", c17Bench)
	path := filepath.Join(t.TempDir(), "atpg.ckpt")
	opts := DefaultOptions()
	opts.Checkpoint = &CheckpointConfig{Path: path, Every: 1}
	if _, err := GenerateContext(context.Background(), c, opts); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o600); err != nil {
		t.Fatal(err)
	}
	opts.Checkpoint.Resume = true
	_, err = GenerateContext(context.Background(), c, opts)
	var ce *runctl.CheckpointError
	if !errors.As(err, &ce) {
		t.Fatalf("corrupt checkpoint resumed: err=%v", err)
	}
	if !strings.Contains(err.Error(), "corrupt") {
		t.Errorf("error %v does not name the corruption", err)
	}
}

func TestCheckpointOptionsMismatchRejected(t *testing.T) {
	c := mustParse(t, "c17", c17Bench)
	path := filepath.Join(t.TempDir(), "atpg.ckpt")
	opts := DefaultOptions()
	opts.Checkpoint = &CheckpointConfig{Path: path, Every: 1}
	if _, err := GenerateContext(context.Background(), c, opts); err != nil {
		t.Fatal(err)
	}
	// Same checkpoint, different search options: must refuse to resume.
	opts.Seed = 99
	opts.Checkpoint.Resume = true
	_, err := GenerateContext(context.Background(), c, opts)
	var ce *runctl.CheckpointError
	if !errors.As(err, &ce) {
		t.Fatalf("foreign checkpoint resumed: err=%v", err)
	}
	if !strings.Contains(err.Error(), "hash mismatch") {
		t.Errorf("error %v does not name the hash mismatch", err)
	}
}

func TestResumeMissingFileStartsFresh(t *testing.T) {
	c := mustParse(t, "c17", c17Bench)
	opts := DefaultOptions()
	opts.Checkpoint = &CheckpointConfig{
		Path:   filepath.Join(t.TempDir(), "absent.ckpt"),
		Resume: true,
	}
	res, err := GenerateContext(context.Background(), c, opts)
	if err != nil {
		t.Fatalf("missing checkpoint with -resume must start fresh: %v", err)
	}
	if res.Incomplete {
		t.Error("fresh run marked incomplete")
	}
}

// TestResumeBitForBitIdentical is the tentpole's core guarantee: a run
// interrupted mid-generation and resumed from its checkpoint produces the
// exact pattern set — and therefore the exact TDV — of an uninterrupted run.
func TestResumeBitForBitIdentical(t *testing.T) {
	c := standin(t, "s953")
	full, err := GenerateContext(context.Background(), c, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "atpg.ckpt")
	opts := DefaultOptions()
	opts.Checkpoint = &CheckpointConfig{Path: path, Every: 1}
	part, err := GenerateContext(cancelAfter(10), c, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupt run: %v", err)
	}
	if !part.Incomplete || len(part.Cubes) == len(full.Cubes) {
		t.Fatalf("interrupted run was not actually partial (%d cubes vs %d)", len(part.Cubes), len(full.Cubes))
	}

	opts.Checkpoint.Resume = true
	resumed, err := GenerateContext(context.Background(), c, opts)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Incomplete {
		t.Error("resumed run marked incomplete")
	}
	if !patternsEqual(resumed.Patterns, full.Patterns) {
		t.Fatalf("resumed patterns differ: %d vs %d", len(resumed.Patterns), len(full.Patterns))
	}
	if resumed.NumDetected != full.NumDetected ||
		resumed.NumRedundant != full.NumRedundant ||
		resumed.NumAborted != full.NumAborted ||
		resumed.Coverage != full.Coverage {
		t.Errorf("resumed accounting differs: %+v vs %+v", resumed, full)
	}
}

// TestResumeFromCompleteCheckpoint resumes from a sealed (post-loop)
// checkpoint: the main loop is skipped entirely and the escalation and
// compaction phases still reproduce the identical final set.
func TestResumeFromCompleteCheckpoint(t *testing.T) {
	c := standin(t, "s953")
	path := filepath.Join(t.TempDir(), "atpg.ckpt")
	opts := DefaultOptions()
	opts.Checkpoint = &CheckpointConfig{Path: path, Every: 16}
	full, err := GenerateContext(context.Background(), c, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Checkpoint.Resume = true
	again, err := GenerateContext(context.Background(), c, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !patternsEqual(again.Patterns, full.Patterns) {
		t.Fatal("resume from complete checkpoint diverged")
	}
}

func TestInjectedPanicRecovered(t *testing.T) {
	defer runctl.DisarmAll()
	c := standin(t, "s953")
	runctl.ArmPanic(FPFault, 5, "injected failure")
	res, err := GenerateContext(context.Background(), c, DefaultOptions())
	var pe *runctl.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want *runctl.PanicError", err)
	}
	if pe.Circuit != c.Name {
		t.Errorf("PanicError circuit %q, want %q", pe.Circuit, c.Name)
	}
	if !strings.Contains(pe.Detail, "fault ") {
		t.Errorf("PanicError detail %q lacks the fault under target", pe.Detail)
	}
	if pe.Value != "injected failure" {
		t.Errorf("PanicError value %v", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Error("PanicError lost the stack")
	}
	// Partial work preserved: the committed cubes survive on the result.
	if res == nil || !res.Incomplete {
		t.Fatal("panic did not leave a partial result")
	}
	if len(res.Cubes) == 0 {
		t.Error("partial result lost the committed cubes")
	}
}

func TestInjectedCheckpointWriteFailure(t *testing.T) {
	defer runctl.DisarmAll()
	c := standin(t, "s953")
	sentinel := errors.New("disk detached")
	// Let two checkpoints succeed, fail the third: earlier state must
	// survive and the error must carry the partial results.
	runctl.Arm(runctl.FPCheckpointWrite, 3, sentinel)
	path := filepath.Join(t.TempDir(), "atpg.ckpt")
	opts := DefaultOptions()
	opts.Checkpoint = &CheckpointConfig{Path: path, Every: 2}
	res, err := GenerateContext(context.Background(), c, opts)
	var ce *runctl.CheckpointError
	if !errors.As(err, &ce) {
		t.Fatalf("got %v, want *runctl.CheckpointError", err)
	}
	if !errors.Is(err, sentinel) {
		t.Errorf("error %v does not wrap the injected cause", err)
	}
	if res == nil || !res.Incomplete || len(res.Cubes) == 0 {
		t.Fatal("checkpoint failure did not preserve partial results")
	}
	// The previous successful checkpoint is still on disk and loadable.
	hash := optionsHash(c, len(faults.CollapsedUniverse(c)), opts)
	st, lerr := loadCheckpoint(path, hash)
	if lerr != nil {
		t.Fatalf("previous checkpoint lost: %v", lerr)
	}
	if len(st.Cubes) == 0 {
		t.Error("previous checkpoint empty")
	}
}

// TestEscalationHonoursDeadline runs an absurd number of escalation
// passes under a deadline. Passes past the last aborted fault must not
// run at all, and the deadline must be checked between passes, so the
// run returns at once with exactly the result of two passes.
func TestEscalationHonoursDeadline(t *testing.T) {
	c := standin(t, "s713")
	opts := DefaultOptions()
	opts.Passes = 2
	want := Generate(c, opts)

	const deadline = 2 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	opts.Passes = 1 << 40
	type out struct {
		res *Result
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, err := GenerateContext(ctx, c, opts)
		done <- out{res, err}
	}()
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatalf("Passes=1<<40: %v", o.err)
		}
		resultsIdentical(t, "Passes=1<<40 vs Passes=2", want, o.res)
	case <-time.After(deadline + time.Second):
		t.Fatalf("Passes=1<<40 did not return within its %v deadline", deadline)
	}
}

// TestDefaultPathAllocationNeutral pins the per-fault overhead of the
// resilience layer on the default path (no checkpoint, background context,
// no armed failpoints) at zero allocations.
func TestDefaultPathAllocationNeutral(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		if ctx.Err() != nil {
			t.Fatal("background context cancelled")
		}
		if runctl.Hit(FPFault) != nil {
			t.Fatal("unarmed failpoint fired")
		}
	})
	if allocs != 0 {
		t.Errorf("per-fault resilience checks allocate %v times, want 0", allocs)
	}
}

func TestGenerateWrapperStillPanicsOnInternalError(t *testing.T) {
	defer runctl.DisarmAll()
	c := mustParse(t, "c17", c17Bench)
	runctl.ArmPanic(FPFault, 1, "boom")
	defer func() {
		if r := recover(); r == nil {
			t.Error("legacy Generate did not panic on internal failure")
		}
	}()
	opts := DefaultOptions()
	opts.RandomPatterns = 0 // force at least one fault through the PODEM loop
	Generate(c, opts)
}
