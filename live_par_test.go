package repro

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/atpg"
	"repro/internal/bench89"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/runctl"
	"repro/internal/soc"
)

// TestLiveSOCWorkersBitIdentical is the top of the determinism stack: the
// whole live SOC experiment — generation, per-core ATPG and the flatten on
// one pool, the monolithic run, the TDV model, and the rendered tables —
// must come out identical whether the jobs run serially or concurrently,
// and so must every counter, gauge and histogram the forks merge, but for
// the gauges that record the worker count.
func TestLiveSOCWorkersBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full live runs are slow; skipped in -short")
	}
	run := func(workers int) (*LiveResult, obs.Snapshot) {
		t.Helper()
		reg := obs.NewRegistry()
		r, err := LiveSOC1(LiveOptions{GateScale: 0.35, Workers: workers, Obs: obs.New(reg, nil)})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		snap := reg.Snapshot()
		for _, g := range []string{"live.workers", "atpg.workers"} {
			if snap.Gauges[g] != int64(workers) {
				t.Errorf("workers=%d: gauge %s = %d", workers, g, snap.Gauges[g])
			}
			delete(snap.Gauges, g)
		}
		return r, snap
	}
	want, wantSnap := run(1)
	for _, w := range []int{2, 4} {
		got, gotSnap := run(w)
		for _, m := range []struct {
			kind      string
			got, want any
		}{
			{"counters", gotSnap.Counters, wantSnap.Counters},
			{"gauges", gotSnap.Gauges, wantSnap.Gauges},
			{"histograms", gotSnap.Histograms, wantSnap.Histograms},
		} {
			if !reflect.DeepEqual(m.got, m.want) {
				t.Errorf("workers=%d: %s differ:\n  got  %v\n  want %v", w, m.kind, m.got, m.want)
			}
		}
		if !reflect.DeepEqual(got.Cores, want.Cores) {
			t.Fatalf("workers=%d: per-core results differ:\n  got  %+v\n  want %+v", w, got.Cores, want.Cores)
		}
		if got.TMono != want.TMono || got.MonoCoverage != want.MonoCoverage || got.MaxCoreT != want.MaxCoreT {
			t.Fatalf("workers=%d: monolithic measurements differ: (%d, %v, %d) vs (%d, %v, %d)",
				w, got.TMono, got.MonoCoverage, got.MaxCoreT, want.TMono, want.MonoCoverage, want.MaxCoreT)
		}
		if !reflect.DeepEqual(got.Report, want.Report) {
			t.Fatalf("workers=%d: TDV reports differ:\n  got  %+v\n  want %+v", w, got.Report, want.Report)
		}
		if gs, ws := RenderLive(got), RenderLive(want); gs != ws {
			t.Fatalf("workers=%d: rendered tables differ:\n--- got ---\n%s\n--- want ---\n%s", w, gs, ws)
		}
		if got.Workers != w {
			t.Errorf("Workers field = %d, want %d", got.Workers, w)
		}
	}
}

// soc1Cores generates SOC1's live cores at gate scale 0.35, as liveSOC
// does.
func soc1Cores() []*netlist.Circuit {
	names := []string{"s713", "s953", "s1423", "s1423", "s1423"}
	cores := make([]*netlist.Circuit, len(names))
	for i, n := range names {
		p, _ := bench89.ProfileByName(n)
		p.Seed += int64(i) * 1013
		p.Gates = int(float64(p.Gates) * 0.35)
		cores[i] = bench89.MustGenerate(p)
	}
	return cores
}

var soc1Flatten = soc.FlattenOptions{Seed: 1, InterconnectFraction: 0.45}

// TestFlattenDuringPerCoreATPG runs soc.Flatten over SOC1's live cores
// while per-core ATPG reads the same circuits, the overlap the live
// pipeline's pool allows: under -race a write to a shared circuit fails
// it, and every result must equal its serial run.
func TestFlattenDuringPerCoreATPG(t *testing.T) {
	cores := soc1Cores()
	flatten := func() string {
		flat, err := soc.Flatten("SOC1-flat", cores, soc1Flatten)
		if err != nil {
			t.Error(err)
			return ""
		}
		return netlist.BenchString(flat)
	}
	generate := func(c *netlist.Circuit) int { return atpg.Generate(c, DefaultATPGOptions()).PatternCount() }
	wantFlat, wantT := flatten(), make([]int, len(cores))
	for i, c := range cores {
		wantT[i] = generate(c)
	}
	// Jobs 0..4 run ATPG on the cores, jobs 5.. flatten them, all at once.
	gotFlat, gotT := make([]string, 3), make([]int, len(cores))
	if _, err := par.ForEach(context.Background(), len(cores)+len(gotFlat), len(cores)+len(gotFlat), func(i int) error {
		if i < len(cores) {
			gotT[i] = generate(cores[i])
		} else {
			gotFlat[i-len(cores)] = flatten()
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotT, wantT) {
		t.Errorf("per-core pattern counts %v beside the flatten, %v alone", gotT, wantT)
	}
	for _, f := range gotFlat {
		if f != wantFlat {
			t.Error("a flatten beside per-core ATPG differs from one alone")
		}
	}
}

// TestMonoBesidePerCoreATPG runs the live pipeline's monolithic job,
// flatten then ATPG on the flat circuit, beside per-core ATPG on the same
// circuits, every run on a two-worker engine as in the pool: under -race
// a write to a shared circuit or program fails it, and every pattern set
// must equal its serial run's.
func TestMonoBesidePerCoreATPG(t *testing.T) {
	cores := soc1Cores()
	opts := DefaultATPGOptions()
	opts.Workers = 2
	generate := func(c *netlist.Circuit) []logic.Cube {
		r, err := atpg.GenerateContext(context.Background(), c, opts)
		if err != nil {
			t.Error(err)
			return nil
		}
		return r.Patterns
	}
	mono := func() []logic.Cube {
		flat, err := soc.Flatten("SOC1-flat", cores, soc1Flatten)
		if err != nil {
			t.Error(err)
			return nil
		}
		return generate(flat)
	}
	wantMono, want := mono(), make([][]logic.Cube, len(cores))
	for i, c := range cores {
		want[i] = generate(c)
	}
	// Jobs 0..1 run flatten and mono, jobs 2.. the cores, all at once.
	gotMono, got := make([][]logic.Cube, 2), make([][]logic.Cube, len(cores))
	n := len(gotMono) + len(cores)
	if _, err := par.ForEach(context.Background(), n, n, func(i int) error {
		if i < len(gotMono) {
			gotMono[i] = mono()
		} else {
			got[i-len(gotMono)] = generate(cores[i-len(gotMono)])
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range cores {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("core %d: %d patterns beside mono, %d alone, or they differ", i+1, len(got[i]), len(want[i]))
		}
	}
	for _, m := range gotMono {
		if !reflect.DeepEqual(m, wantMono) {
			t.Errorf("mono beside per-core ATPG: %d patterns, %d alone, or they differ", len(m), len(wantMono))
		}
	}
}

// cancelOn is a trace sink that cancels a context when it sees the named
// event.
type cancelOn struct {
	name   string
	cancel context.CancelFunc
}

func (s cancelOn) Emit(e obs.Event) {
	if e.Name == s.name {
		s.cancel()
	}
}

func (cancelOn) Err() error { return nil }

// TestLiveSOCFailsAsSerialWithMonoInFlight stops the live SOC1 experiment
// while the monolithic job runs beside the cores: by a panic injected into
// the nth PODEM target of whichever run reaches it (a core's, unless the
// monolithic job's comes first), by a context cancelled before the run,
// and by one cancelled as the monolithic ATPG starts. Each must end as
// the serial pipeline would end if the same run failed: a core's failure
// returns the cores before it, exactly as the serial run measures them,
// and that core's error, never the monolithic job's; only with every core
// done does the monolithic error return, beside all the cores. No
// goroutine may outlive the experiment.
func TestLiveSOCFailsAsSerialWithMonoInFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("full live runs are slow; skipped in -short")
	}
	defer runctl.DisarmAll()
	reg := obs.NewRegistry()
	ref, err := LiveSOC1(LiveOptions{GateScale: 0.35, Workers: 1, Obs: obs.New(reg, nil)})
	if err != nil {
		t.Fatal(err)
	}
	// Every PODEM target hits the failpoint once.
	targets := int(reg.Snapshot().Counters["atpg.faults.targeted"])
	// check holds one stopped run to the serial outcome: cause recognizes
	// what stopped it, and bare, if not nil, is the error the serial loop
	// returns unwrapped for a core it never started.
	check := func(label string, res *LiveResult, err error, cause func(error) bool, bare error) {
		t.Helper()
		if err == nil || res == nil {
			t.Fatalf("%s: result %v, error %v; want a stopped run", label, res, err)
		}
		if !cause(err) {
			t.Fatalf("%s: error %v does not carry the cause", label, err)
		}
		var k int
		switch {
		case bare != nil && err == bare:
			k = len(res.Cores) + 1
		case strings.HasPrefix(err.Error(), "repro: live SOC1 monolithic ATPG: "):
			k = len(ref.Cores) + 1
		default:
			if _, serr := fmt.Sscanf(err.Error(), "repro: live SOC1 core %d ", &k); serr != nil {
				t.Fatalf("%s: error %q names neither a core nor the monolithic ATPG", label, err)
			}
		}
		if len(res.Cores) != k-1 || !slices.Equal(res.Cores, ref.Cores[:k-1]) {
			t.Fatalf("%s: %v after core %d failed; the serial run's prefix is %v", label, res.Cores, k, ref.Cores[:min(k-1, len(ref.Cores))])
		}
		if res.TMono != 0 || res.SOC != nil {
			t.Fatalf("%s: a stopped run reports T_mono %d", label, res.TMono)
		}
		t.Logf("%s: stopped at job %d of %d: %v", label, k, len(ref.Cores)+1, err)
	}
	// run runs one experiment and fails t if a goroutine outlives it.
	run := func(label string, ctx context.Context, o LiveOptions) (*LiveResult, error) {
		t.Helper()
		before := runtime.NumGoroutine()
		res, err := LiveSOC1Context(ctx, o)
		for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines outlive the experiment", label, runtime.NumGoroutine()-before)
			}
		}
		return res, err
	}
	isPanic := func(err error) bool {
		var pe *runctl.PanicError
		return errors.As(err, &pe) && pe.Value == "injected"
	}
	for _, w := range []int{1, 2, 4} {
		for _, nth := range []int{1, targets / 4, targets / 2, targets} {
			label := fmt.Sprintf("workers=%d, panic at target %d", w, nth)
			runctl.ArmPanic(atpg.FPFault, nth, "injected")
			res, err := run(label, context.Background(), LiveOptions{GateScale: 0.35, Workers: w})
			runctl.DisarmAll()
			check(label, res, err, isPanic, nil)
		}

		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		label := fmt.Sprintf("workers=%d, cancelled before", w)
		res, err := run(label, ctx, LiveOptions{GateScale: 0.35, Workers: w})
		if err != context.Canceled || res == nil || len(res.Cores) != 0 {
			t.Fatalf("%s: %v, error %v; the serial run stops before core 1 with the context's error", label, res, err)
		}

		ctx, cancel = context.WithCancel(context.Background())
		label = fmt.Sprintf("workers=%d, cancelled as mono starts", w)
		res, err = run(label, ctx, LiveOptions{GateScale: 0.35, Workers: w, Obs: obs.New(nil, cancelOn{"live.mono.begin", cancel})})
		cancel()
		check(label, res, err, func(err error) bool { return errors.Is(err, context.Canceled) }, context.Canceled)
	}
}

// TestTable4WorkersBitIdentical: the ITC'02 sweep computed with a worker
// pool must render the exact table the serial sweep renders.
func TestTable4WorkersBitIdentical(t *testing.T) {
	serial, err := Table4Workers(1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Table4Workers(4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(par, serial) {
		t.Fatal("Table4 rows differ between workers=1 and workers=4")
	}
	if RenderTable4Rows(par) != RenderTable4Rows(serial) {
		t.Fatal("rendered Table 4 differs between workers=1 and workers=4")
	}
}
