package atpg

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/faultsim"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/sat"
)

// SettleReport summarises one SettleAborted pass: how the formal layer
// disposed of every fault the PODEM search had given up on.
type SettleReport struct {
	// Aborted is the number of faults that carried a final Aborted verdict
	// going in — all of them are settled on return.
	Aborted int
	// ProvedRedundant counts miters proven unsatisfiable: the fault is
	// untestable by any fully specified pattern.
	ProvedRedundant int
	// CubesAdded counts satisfiable miters: each yielded a test cube that
	// fault simulation confirmed and that joined the pattern set.
	CubesAdded int
	// Conflicts is the summed conflict count of the proofs' fixed-order
	// DPLL trees: what a memo-free search would hit, not the work done
	// (see sat.Solver).
	Conflicts int64
	// Decisions, Propagations and MemoHits sum the solver's work counters
	// over all proofs.
	Decisions    int64
	Propagations int64
	MemoHits     int64
}

// SettleAborted formally settles every fault whose final generation verdict
// is Aborted: the SAT redundancy prover builds the good-vs-faulty miter and
// either proves the fault untestable (upgrading it to ProvedRedundant) or
// extracts a test cube, which is verified on the compiled Program and
// folded into the pattern set (zero-filled, the engine's X convention).
// Accounting is then re-finalized, so Coverage and EffectiveCoverage — and
// with them the per-core pattern counts T_i of the paper's TDV analysis —
// are exact: on return no fault is Aborted, and
//
//	NumDetected + NumRedundant + NumProvedRedundant == NumFaults
//
// holds whenever the generation run itself was complete. workers bounds
// the proofs in flight (each holds one pooled 640 KiB memo table) and the
// shards of the final accounting simulation. Proofs commit in fault order,
// so the pass is bit-reproducible and independent of the worker count.
// Counters: sat.proved_redundant, sat.cubes, sat.conflicts, sat.decisions,
// sat.propagations and sat.memo_hits; the sat.conflicts_per_proof
// histogram holds each proof's conflict count, and the sat.prove timer
// sums the proofs' busy time.
func SettleAborted(c *netlist.Circuit, flist []faults.Fault, res *Result, col *obs.Collector, workers int) SettleReport {
	rep, _ := SettleAbortedContext(context.Background(), c, flist, res, col, workers)
	return rep
}

// SettleAbortedContext is SettleAborted that stops when ctx is done. The
// proofs under way are abandoned, never counted as redundant. Only the
// committed prefix is recorded, the proofs before the first unfinished
// one, each with the verdict a full pass records; every later fault stays
// Aborted and counts as unsettled. res is marked Incomplete, its
// accounting re-finalized over the patterns so far, and the error wraps
// the context's. The report covers the committed proofs only.
func SettleAbortedContext(ctx context.Context, c *netlist.Circuit, flist []faults.Fault, res *Result, col *obs.Collector, workers int) (SettleReport, error) {
	span := col.StartSpan("atpg.phase.settle")
	defer span.End()

	// Final verdict per targeted fault: outcomes are append-only, so the
	// last entry wins (escalation passes re-record upgraded verdicts).
	finalStatus := make(map[faults.Fault]Status, len(res.Outcomes))
	for _, o := range res.Outcomes {
		finalStatus[o.Fault] = o.Status
	}
	var aborted []faults.Fault
	for f, st := range finalStatus {
		if st == Aborted {
			aborted = append(aborted, f)
		}
	}
	sortFaults(aborted)

	rep := SettleReport{Aborted: len(aborted)}
	if len(aborted) == 0 {
		return rep, nil
	}

	// An engine with no fault list of its own: it only checks each cube
	// against its fault in the pending batch.
	prog := faultsim.Compile(c)
	chk := faultsim.NewEngineFor(prog, nil)
	perProof := col.Histogram("sat.conflicts_per_proof", obs.ExpBounds(1, 4, 16)...)
	// The proofs run on the worker pool, each into its own slot. Proof i
	// commits once proofs 0..i have all finished, so outcomes, patterns,
	// counters and trace follow fault order for every worker count, and a
	// stop commits exactly the proofs before the first unfinished one.
	type slot struct {
		proof sat.Proof
		took  time.Duration
		done  bool
	}
	slots := make([]slot, len(aborted))
	committed := 0
	commit := func(f faults.Fault, proof sat.Proof, took time.Duration) {
		rep.Conflicts += proof.Conflicts
		rep.Decisions += proof.Decisions
		rep.Propagations += proof.Propagations
		rep.MemoHits += proof.MemoHits
		perProof.Observe(float64(proof.Conflicts))
		if proof.Redundant {
			rep.ProvedRedundant++
			res.Outcomes = append(res.Outcomes, Outcome{f, ProvedRedundant, int(proof.Conflicts)})
			emitSettle(col, c, f, ProvedRedundant, proof, took)
			return
		}
		cube := proof.Cube
		ok := queuedDetects(chk, chk.Queue(cube), f)
		chk.Unqueue()
		if !ok {
			// An unverifiable cube is a prover bug, never silently accepted —
			// the same contract the PODEM loop holds its own cubes to.
			panic(fmt.Sprintf("atpg: settle cube %v does not detect %s", proof.Cube, f.String(c)))
		}
		rep.CubesAdded++
		res.Cubes = append(res.Cubes, cube)
		res.Patterns = append(res.Patterns, cube.Fill(func(int) logic.V { return logic.Zero }))
		res.Outcomes = append(res.Outcomes, Outcome{f, Detected, int(proof.Conflicts)})
		emitSettle(col, c, f, Detected, proof, took)
	}
	var mu sync.Mutex
	tProve := col.Timer("sat.prove")
	_, stop := par.ForEach(ctx, len(aborted), workers, func(i int) error {
		// lintgo:allow GO002 proof timing metric, never a result input.
		start := time.Now()
		proof, err := sat.ProveFaultContext(ctx, c, aborted[i])
		took := tProve.Since(start)
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		slots[i] = slot{proof, took, true}
		for ; committed < len(slots) && slots[committed].done; committed++ {
			commit(aborted[committed], slots[committed].proof, slots[committed].took)
		}
		return nil
	})
	if stop != nil {
		stop = fmt.Errorf("atpg: settling %q stopped with %d of %d aborts settled: %w",
			c.Name, committed, rep.Aborted, stop)
	}
	col.Counter("sat.proved_redundant").Add(int64(rep.ProvedRedundant))
	col.Counter("sat.cubes").Add(int64(rep.CubesAdded))
	col.Counter("sat.conflicts").Add(rep.Conflicts)
	col.Counter("sat.decisions").Add(rep.Decisions)
	col.Counter("sat.propagations").Add(rep.Propagations)
	col.Counter("sat.memo_hits").Add(rep.MemoHits)

	// Rebuild the failed map under the settled verdicts and re-finalize:
	// the coverage figures become exact for the enlarged pattern set.
	failed := make(map[faults.Fault]Status)
	for _, o := range res.Outcomes {
		switch o.Status {
		case Detected:
			delete(failed, o.Fault)
		default:
			failed[o.Fault] = o.Status
		}
	}
	if stop != nil {
		res.Incomplete = true
	}
	final := faultsim.NewEngineFor(prog, flist)
	final.SetWorkers(workers)
	final.Apply(res.Patterns)
	finalizeAccounting(failed, res, col, final.DetectedCount())
	return rep, stop
}

// emitSettle traces one settled fault: its verdict, the proof's conflict
// count and work counters, and the proof's wall time.
func emitSettle(col *obs.Collector, c *netlist.Circuit, f faults.Fault, st Status, p sat.Proof, d time.Duration) {
	if !col.Tracing() {
		return
	}
	col.Emit("atpg.settle",
		obs.F("fault", f.String(c)),
		obs.F("status", st.String()),
		obs.F("conflicts", p.Conflicts),
		obs.F("decisions", p.Decisions),
		obs.F("propagations", p.Propagations),
		obs.F("memo_hits", p.MemoHits),
		obs.F("sec", d.Seconds()))
}
