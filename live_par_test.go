package repro

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/atpg"
	"repro/internal/bench89"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/par"
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

// TestFlattenDuringPerCoreATPG runs soc.Flatten over SOC1's live cores
// while per-core ATPG reads the same circuits, the overlap the live
// pipeline's pool allows: under -race a write to a shared circuit fails
// it, and every result must equal its serial run.
func TestFlattenDuringPerCoreATPG(t *testing.T) {
	names := []string{"s713", "s953", "s1423", "s1423", "s1423"}
	cores := make([]*netlist.Circuit, len(names))
	for i, n := range names {
		p, _ := bench89.ProfileByName(n)
		p.Seed += int64(i) * 1013
		p.Gates = int(float64(p.Gates) * 0.35)
		cores[i] = bench89.MustGenerate(p)
	}
	opt := soc.FlattenOptions{Seed: 1, InterconnectFraction: 0.45}
	flatten := func() string {
		flat, err := soc.Flatten("SOC1-flat", cores, opt)
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
