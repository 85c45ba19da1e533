package atpg

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/faultsim"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/runctl"
	"repro/internal/sat"
)

// settleRun runs generation under a deliberately starved backtrack limit
// (so PODEM aborts on every non-trivial fault) and then settles the
// aborts with the SAT prover.
func settleRun(t *testing.T, c *netlist.Circuit, workers int) (*Result, SettleReport) {
	t.Helper()
	flist := faults.CollapsedUniverse(c)
	opts := Options{BacktrackLimit: 1, RandomPatterns: 0, Compact: false, Seed: 1, Workers: workers}
	res := GenerateForFaults(c, flist, opts)
	rep := SettleAborted(c, flist, res, nil, workers)
	return res, rep
}

func TestSettleAbortedSettlesEverything(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "netlist", "testdata", "*.bench"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no fixtures: %v", err)
	}
	for _, path := range paths {
		name := strings.TrimSuffix(filepath.Base(path), ".bench")
		t.Run(name, func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			c, err := netlist.ParseBenchString(name, string(data))
			if err != nil {
				t.Fatal(err)
			}
			res, rep := settleRun(t, c, 1)
			if res.NumAborted != 0 {
				t.Fatalf("settle left %d aborted faults", res.NumAborted)
			}
			if got := rep.ProvedRedundant + rep.CubesAdded; got != rep.Aborted {
				t.Fatalf("settle disposed of %d faults, had %d aborted", got, rep.Aborted)
			}
			if res.NumDetected+res.NumRedundant+res.NumProvedRedundant != res.NumFaults {
				t.Fatalf("accounting does not close: %d detected + %d redundant + %d proved != %d faults",
					res.NumDetected, res.NumRedundant, res.NumProvedRedundant, res.NumFaults)
			}
			if res.EffectiveCoverage != 1 {
				t.Fatalf("effective coverage = %v after settlement", res.EffectiveCoverage)
			}
			// Every settled verdict is sound: proved-redundant faults are
			// genuinely undetectable (checked exhaustively where feasible),
			// and every added cube pulled coverage up, which the final
			// re-simulation has already confirmed via NumDetected above.
			if len(c.PseudoInputs()) <= faultsim.MaxOracleInputs {
				pats := faultsim.AllPatterns(len(c.PseudoInputs()))
				for _, o := range res.Outcomes {
					if o.Status != ProvedRedundant {
						continue
					}
					if k := faultsim.SerialSimulate(c, pats, []faults.Fault{o.Fault}).DetectedBy[0]; k != faultsim.Undetected {
						t.Fatalf("fault %s proved redundant but pattern %v detects it", o.Fault.String(c), pats[k])
					}
				}
			}
		})
	}
}

func TestSettleAbortedNoAborts(t *testing.T) {
	c := mustParse(t, "c17", c17Bench)
	flist := faults.CollapsedUniverse(c)
	res := GenerateForFaults(c, flist, DefaultOptions())
	if res.NumAborted != 0 {
		t.Fatalf("c17 should generate without aborts, got %d", res.NumAborted)
	}
	before := res.Summary("c17")
	rep := SettleAborted(c, flist, res, nil, 1)
	if rep.Aborted != 0 || rep.ProvedRedundant != 0 || rep.CubesAdded != 0 || rep.Conflicts != 0 {
		t.Fatalf("settle of a clean run did work: %+v", rep)
	}
	after := res.Summary("c17")
	b1, _ := EncodeSummary(before)
	b2, _ := EncodeSummary(after)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("settle of a clean run changed the summary:\n%s\n%s", b1, b2)
	}
}

func TestSettleAbortedRedundantFault(t *testing.T) {
	// o = OR(AND(a,b), AND(a,¬b)) reconverges to a, so x = XOR(o, a) is
	// constant 0 and x stuck-at-0 is redundant — but proving it takes
	// exhausting both a and b, which a backtrack limit of 1 cannot do:
	// PODEM aborts, and settlement must prove the redundancy instead of
	// leaving it to drag coverage down.
	src := `
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(z)
nb = NOT(b)
t1 = AND(a, b)
t2 = AND(a, nb)
o = OR(t1, t2)
x = XOR(o, a)
z = OR(x, c)
`
	c := mustParse(t, "red", src)
	res, rep := settleRun(t, c, 1)
	if rep.ProvedRedundant == 0 {
		t.Fatal("expected at least one proved-redundant fault")
	}
	if res.NumProvedRedundant != rep.ProvedRedundant {
		t.Fatalf("result counts %d proved-redundant, report %d", res.NumProvedRedundant, rep.ProvedRedundant)
	}
	sum := res.Summary("red")
	if sum.ProvedRedundant != rep.ProvedRedundant {
		t.Fatalf("summary carries %d proved-redundant, want %d", sum.ProvedRedundant, rep.ProvedRedundant)
	}
}

// TestSettleDeterminism pins the settled result bit-identical across
// repeated runs and across worker counts: same verdict sequence, same
// cube strings, same serialized summary bytes.
func TestSettleDeterminism(t *testing.T) {
	c := randomCircuit(t, 7, 10, 80, 5, 3)
	type snap struct {
		outcomes []Outcome
		cubes    []string
		summary  []byte
		report   SettleReport
	}
	take := func(workers int) snap {
		res, rep := settleRun(t, c, workers)
		cubes := make([]string, len(res.Cubes))
		for i, cu := range res.Cubes {
			cubes[i] = cu.String()
		}
		b, err := EncodeSummary(res.Summary("rand"))
		if err != nil {
			t.Fatal(err)
		}
		return snap{append([]Outcome(nil), res.Outcomes...), cubes, b, rep}
	}
	ref := take(1)
	if ref.report.Aborted == 0 {
		t.Fatal("test circuit produced no aborted faults; starve harder")
	}
	for _, workers := range []int{1, 4} {
		for rep := 0; rep < 2; rep++ {
			got := take(workers)
			if got.report != ref.report {
				t.Fatalf("workers=%d: settle report diverged: %+v vs %+v", workers, got.report, ref.report)
			}
			if len(got.outcomes) != len(ref.outcomes) {
				t.Fatalf("workers=%d: outcome count %d vs %d", workers, len(got.outcomes), len(ref.outcomes))
			}
			for i := range got.outcomes {
				if got.outcomes[i] != ref.outcomes[i] {
					t.Fatalf("workers=%d: outcome %d diverged: %+v vs %+v", workers, i, got.outcomes[i], ref.outcomes[i])
				}
			}
			for i := range got.cubes {
				if got.cubes[i] != ref.cubes[i] {
					t.Fatalf("workers=%d: cube %d diverged: %s vs %s", workers, i, got.cubes[i], ref.cubes[i])
				}
			}
			if !bytes.Equal(got.summary, ref.summary) {
				t.Fatalf("workers=%d: summary bytes diverged:\n%s\n%s", workers, got.summary, ref.summary)
			}
		}
	}
}

// TestSettleCheckpointCompatible: a run checkpointed mid-flight, resumed,
// and then settled produces byte-identical summary output to an
// uninterrupted settled run — and the v3 checkpoint round-trips the
// ProvedRedundant status.
func TestSettleCheckpointCompatible(t *testing.T) {
	c := randomCircuit(t, 9, 9, 50, 4, 2)
	flist := faults.CollapsedUniverse(c)
	base := Options{BacktrackLimit: 1, RandomPatterns: 0, Compact: false, Seed: 1}

	run := func(opts Options) []byte {
		res := GenerateForFaults(c, flist, opts)
		SettleAborted(c, flist, res, nil, 1)
		b, err := EncodeSummary(res.Summary("ck"))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	want := run(base)

	dir := t.TempDir()
	path := filepath.Join(dir, "atpg.ckpt")
	ck := base
	ck.Checkpoint = &CheckpointConfig{Path: path, Every: 3, Resume: false}
	// Run to completion with checkpointing on, then resume from the final
	// checkpoint; restore must accept every recorded status.
	first := GenerateForFaults(c, flist, ck)
	SettleAborted(c, flist, first, nil, 1)
	ck.Checkpoint = &CheckpointConfig{Path: path, Every: 3, Resume: true}
	second := GenerateForFaults(c, flist, ck)
	SettleAborted(c, flist, second, nil, 1)
	b2, err := EncodeSummary(second.Summary("ck"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, b2) {
		t.Fatalf("checkpoint-resumed settled run diverged:\n%s\n%s", want, b2)
	}
}

// TestSettleCountersEmitted: the settle pass reports its work through the
// sat.* counters, the per-proof conflict histogram and one atpg.settle
// trace event per settled fault.
func TestSettleCountersEmitted(t *testing.T) {
	c := mustParse(t, "red", `
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(z)
nb = NOT(b)
t1 = AND(a, b)
t2 = AND(a, nb)
o = OR(t1, t2)
x = XOR(o, a)
z = OR(x, c)
`)
	flist := faults.CollapsedUniverse(c)
	opts := Options{BacktrackLimit: 1, RandomPatterns: 0, Compact: false, Seed: 1}
	res := GenerateForFaults(c, flist, opts)
	var buf bytes.Buffer
	reg := obs.NewRegistry()
	col := obs.New(reg, obs.NewJSONLSink(&buf))
	rep := SettleAborted(c, flist, res, col, 1)
	if rep.Aborted == 0 {
		t.Fatal("expected aborts to settle")
	}
	if rep.Decisions == 0 || rep.Propagations == 0 {
		t.Errorf("solver work counters empty: %+v", rep)
	}
	for name, want := range map[string]int64{
		"sat.proved_redundant": int64(rep.ProvedRedundant),
		"sat.cubes":            int64(rep.CubesAdded),
		"sat.conflicts":        rep.Conflicts,
		"sat.decisions":        rep.Decisions,
		"sat.propagations":     rep.Propagations,
		"sat.memo_hits":        rep.MemoHits,
	} {
		if got := col.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	hist := reg.Snapshot().Histograms["sat.conflicts_per_proof"]
	if hist.Count != int64(rep.Aborted) || int64(hist.Sum) != rep.Conflicts {
		t.Errorf("sat.conflicts_per_proof holds %d proofs summing to %v, want %d summing to %d",
			hist.Count, hist.Sum, rep.Aborted, rep.Conflicts)
	}
	var settled int
	var sum SettleReport
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var ev struct {
			Event        string `json:"event"`
			Conflicts    int64  `json:"conflicts"`
			Decisions    int64  `json:"decisions"`
			Propagations int64  `json:"propagations"`
			MemoHits     int64  `json:"memo_hits"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		if ev.Event != "atpg.settle" {
			continue
		}
		settled++
		sum.Conflicts += ev.Conflicts
		sum.Decisions += ev.Decisions
		sum.Propagations += ev.Propagations
		sum.MemoHits += ev.MemoHits
	}
	if settled != rep.Aborted || sum.Conflicts != rep.Conflicts || sum.Decisions != rep.Decisions ||
		sum.Propagations != rep.Propagations || sum.MemoHits != rep.MemoHits {
		t.Errorf("%d atpg.settle events summing to %+v, want %d summing to %+v", settled, sum, rep.Aborted, rep)
	}
}

// TestSettleS953Pinned pins the paper-facing settlement numbers of
// EXPERIMENTS "Settling aborted faults": s953 under -random 0
// -compact=false at backtrack limits 2 and 3. The per-fault conflict
// counts are those of the fixed-order DPLL tree, recorded before the
// solver memoized refuted subtrees; the memo must reproduce them, and the
// one testable abort's cube, exactly. Each row's summed decisions and memo
// hits pin the work the memo table saves, so a table change that loses
// hits fails here too.
func TestSettleS953Pinned(t *testing.T) {
	type settled struct {
		fault     string
		status    Status
		conflicts int
	}
	const cube = "X1X00X1XX0XX0XX0X001X0XX000X00001000XX0X00X0X"
	for _, tc := range []struct {
		backtrack int
		conflicts int64
		decisions int64
		memoHits  int64
		faults    []settled
	}{
		{2, 85_672_000, 1_306_593, 454_777, []settled{
			{"g13/SA0", ProvedRedundant, 4_194_304},
			{"ff13->g13.0/SA1", ProvedRedundant, 18_415_616},
			{"i8->g13.1/SA1", ProvedRedundant, 18_415_616},
			{"g9->g13.3/SA1", ProvedRedundant, 34_603_008},
			{"g112->g178.2/SA1", Detected, 10_043_456},
		}},
		{3, 48_840_768, 301_209, 147_772, []settled{
			{"g13/SA0", ProvedRedundant, 4_194_304},
			{"g9->g13.3/SA1", ProvedRedundant, 34_603_008},
			{"g112->g178.2/SA1", Detected, 10_043_456},
		}},
	} {
		t.Run(fmt.Sprintf("backtrack=%d", tc.backtrack), func(t *testing.T) {
			c := standin(t, "s953")
			flist := faults.CollapsedUniverse(c)
			opts := Options{BacktrackLimit: tc.backtrack, RandomPatterns: 0, Compact: false, Seed: 1, Workers: 1}
			res := GenerateForFaults(c, flist, opts)
			rep := SettleAborted(c, flist, res, nil, 1)
			want := SettleReport{Aborted: len(tc.faults), ProvedRedundant: len(tc.faults) - 1, CubesAdded: 1,
				Conflicts: tc.conflicts, Decisions: tc.decisions, MemoHits: tc.memoHits}
			got := SettleReport{Aborted: rep.Aborted, ProvedRedundant: rep.ProvedRedundant, CubesAdded: rep.CubesAdded,
				Conflicts: rep.Conflicts, Decisions: rep.Decisions, MemoHits: rep.MemoHits}
			if got != want {
				t.Fatalf("settle report %+v, want %+v", got, want)
			}
			if res.PatternCount() != 83 || res.EffectiveCoverage != 1 {
				t.Fatalf("%d patterns, effective coverage %v; want 83 and 1", res.PatternCount(), res.EffectiveCoverage)
			}
			for i, o := range res.Outcomes[len(res.Outcomes)-rep.Aborted:] {
				w := tc.faults[i]
				if o.Fault.String(c) != w.fault || o.Status != w.status || o.Backtracks != w.conflicts {
					t.Errorf("settled fault %d: %s %v %d conflicts, want %s %v %d",
						i, o.Fault.String(c), o.Status, o.Backtracks, w.fault, w.status, w.conflicts)
				}
			}
			if got := res.Cubes[len(res.Cubes)-1].String(); got != cube {
				t.Errorf("settle cube %s, want %s", got, cube)
			}
		})
	}
}

// BenchmarkSettleS953 proves the three aborts of s953 at backtrack limit
// 3 (the socbench sat_settle operation) and reports the solver's work per
// iteration: decisions/op and memo_hits/op fall when the memo table keeps
// more refuted subtrees, while the tree conflicts stay pinned by
// TestSettleS953Pinned.
func BenchmarkSettleS953(b *testing.B) {
	c := standin(b, "s953")
	flist := faults.CollapsedUniverse(c)
	opts := Options{BacktrackLimit: 3, RandomPatterns: 0, Compact: false, Seed: 1, Workers: 1}
	res := GenerateForFaults(c, flist, opts)
	rep := SettleAborted(c, flist, res, nil, 1)
	if rep.Aborted != 3 {
		b.Fatalf("%d aborts at backtrack limit 3, want 3", rep.Aborted)
	}
	var aborted []faults.Fault
	for _, o := range res.Outcomes[len(res.Outcomes)-rep.Aborted:] {
		aborted = append(aborted, o.Fault)
	}
	b.ResetTimer()
	var decisions, memoHits int64
	for i := 0; i < b.N; i++ {
		for _, f := range aborted {
			p := sat.ProveFault(c, f)
			decisions += p.Decisions
			memoHits += p.MemoHits
		}
	}
	b.ReportMetric(float64(decisions)/float64(b.N), "decisions/op")
	b.ReportMetric(float64(memoHits)/float64(b.N), "memo_hits/op")
}

// TestSettleStopsOnDeadline cuts an s953 settlement short with a deadline.
// The stopped pass must return a cancel error, mark the result Incomplete,
// leave every unfinished fault Aborted, and record for each fault it did
// settle the verdict and conflict count of the full pass. With two workers
// the proofs finish out of fault order, so the settled faults must also be
// a prefix of the aborts in fault order.
func TestSettleStopsOnDeadline(t *testing.T) {
	c := standin(t, "s953")
	flist := faults.CollapsedUniverse(c)
	opts := Options{BacktrackLimit: 3, RandomPatterns: 0, Compact: false, Seed: 1, Workers: 1}

	full := GenerateForFaults(c, flist, opts)
	generated := len(full.Outcomes)
	start := time.Now()
	fullRep := SettleAborted(c, flist, full, nil, 1)
	took := time.Since(start)
	order := full.Outcomes[generated:]
	verdict := map[faults.Fault]Outcome{}
	for _, o := range order {
		verdict[o.Fault] = o
	}

	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			res := GenerateForFaults(c, flist, opts)
			// A deadline at a quarter of the serial pass's time, so the cut
			// lands mid-pass on any host: the longest proof alone takes
			// more than half of it.
			ctx, cancel := context.WithTimeout(context.Background(), took/4)
			defer cancel()
			rep, err := SettleAbortedContext(ctx, c, flist, res, nil, workers)
			if !runctl.IsCancel(err) {
				t.Fatalf("settlement under a %v deadline returned %v, want a cancel error", took/4, err)
			}
			if !res.Incomplete {
				t.Error("stopped settlement did not mark the result Incomplete")
			}
			settled := res.Outcomes[generated:]
			t.Logf("the deadline stopped the pass after %d of %d aborts", len(settled), fullRep.Aborted)
			if len(settled) >= fullRep.Aborted {
				t.Fatalf("stopped pass settled %d of %d aborts", len(settled), fullRep.Aborted)
			}
			if got := rep.ProvedRedundant + rep.CubesAdded; got != len(settled) {
				t.Errorf("report counts %d settled faults, outcomes record %d", got, len(settled))
			}
			for i, o := range settled {
				if o.Fault != order[i].Fault {
					t.Errorf("settled fault %d is %s, want %s: not a prefix in fault order",
						i, o.Fault.String(c), order[i].Fault.String(c))
				}
				if want := verdict[o.Fault]; o != want {
					t.Errorf("stopped pass recorded %s %v %d, full pass %v %d",
						o.Fault.String(c), o.Status, o.Backtracks, want.Status, want.Backtracks)
				}
			}
			if want := fullRep.Aborted - len(settled); res.NumAborted != want {
				t.Errorf("%d faults left aborted, want %d", res.NumAborted, want)
			}
			if got := res.NumDetected + res.NumRedundant + res.NumProvedRedundant + res.NumAborted; got != res.NumFaults {
				t.Errorf("accounting does not close: %d of %d faults", got, res.NumFaults)
			}
		})
	}
}

// TestSettleParallelMatchesSerial holds the concurrent pass to the serial
// one on s953, whose proofs differ in length by an order of magnitude and
// so finish out of fault order. At every worker count the report (work
// counters included), outcomes, cubes, summary bytes and atpg.settle
// events (timestamps and proof times aside) must equal the serial pass's.
func TestSettleParallelMatchesSerial(t *testing.T) {
	c := standin(t, "s953")
	flist := faults.CollapsedUniverse(c)
	type snap struct {
		report   SettleReport
		outcomes []Outcome
		cubes    []string
		summary  []byte
		events   []map[string]any
	}
	take := func(t *testing.T, backtrack, workers int) snap {
		opts := Options{BacktrackLimit: backtrack, RandomPatterns: 0, Compact: false, Seed: 1, Workers: workers}
		res := GenerateForFaults(c, flist, opts)
		var buf bytes.Buffer
		rep := SettleAborted(c, flist, res, obs.New(obs.NewRegistry(), obs.NewJSONLSink(&buf)), workers)
		s := snap{report: rep, outcomes: res.Outcomes}
		for _, cu := range res.Cubes {
			s.cubes = append(s.cubes, cu.String())
		}
		var err error
		if s.summary, err = EncodeSummary(res.Summary("s953")); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
			var ev map[string]any
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				t.Fatalf("bad trace line %q: %v", line, err)
			}
			if ev["event"] == "atpg.settle" {
				delete(ev, "ts")
				delete(ev, "sec")
				s.events = append(s.events, ev)
			}
		}
		return s
	}
	for _, tc := range []struct{ backtrack, aborts int }{{2, 5}, {3, 3}} {
		t.Run(fmt.Sprintf("backtrack=%d", tc.backtrack), func(t *testing.T) {
			ref := take(t, tc.backtrack, 1)
			if ref.report.Aborted != tc.aborts || len(ref.events) != tc.aborts {
				t.Fatalf("%d aborts and %d atpg.settle events, want %d", ref.report.Aborted, len(ref.events), tc.aborts)
			}
			for _, workers := range []int{2, 4} {
				got := take(t, tc.backtrack, workers)
				if got.report != ref.report {
					t.Errorf("workers=%d: report %+v, serial %+v", workers, got.report, ref.report)
				}
				if !reflect.DeepEqual(got.outcomes, ref.outcomes) {
					t.Errorf("workers=%d: outcomes differ from the serial pass", workers)
				}
				if !reflect.DeepEqual(got.cubes, ref.cubes) {
					t.Errorf("workers=%d: cubes %v, serial %v", workers, got.cubes, ref.cubes)
				}
				if !bytes.Equal(got.summary, ref.summary) {
					t.Errorf("workers=%d: summary bytes differ:\n%s\n%s", workers, got.summary, ref.summary)
				}
				if !reflect.DeepEqual(got.events, ref.events) {
					t.Errorf("workers=%d: atpg.settle events\n%v\nserial\n%v", workers, got.events, ref.events)
				}
			}
		})
	}
}
