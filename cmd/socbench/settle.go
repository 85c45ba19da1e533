package main

import (
	"context"
	"fmt"
	"reflect"
	"time"

	"repro/internal/atpg"
	"repro/internal/bench89"
	"repro/internal/faults"
	"repro/internal/netlist"
)

// settleGolden is the checked outcome of s953 ATPG plus SAT settlement.
type settleGolden struct {
	Faults            int
	Detected          int
	Redundant         int
	Aborted           int // before settlement
	ProvedRedundant   int
	CubesAdded        int
	Conflicts         int64
	Patterns          int
	Coverage          float64
	EffectiveCoverage float64
}

// settleSetups is how many times sat_settle sets up: generation and a
// PODEM pass take ~50 ms, a span the host moves by a fifth, so several
// repeats keep the median steady.
const settleSetups = 9

// satSettle runs
//
//	atpgrun -standin s953 -backtrack 3 -random 0 -compact=false -sat-prove
//
// in-process: PODEM gives up on three faults at backtrack limit 3 and the
// SAT layer settles all of them, so the solver dominates the operation.
// (At limit 2, the EXPERIMENTS configuration, two more faults abort and
// settlement takes ~85.7M conflicts, ~22 s: too long for a 30 s run.)
// It ignores --seed on purpose: an s953 built from another seed can hold a
// fault whose proof needs ~2^41 conflicts, and settlement cannot be
// cancelled. Each set-up generates s953 and runs the PODEM pass once as
// its verify pass; every repeat, and the PODEM pass of every timed
// operation, must reproduce it. One operation takes ~15 s, so the
// settlement is checked after it runs; nothing is printed unless every
// check passes.
func satSettle(e *env) (*outcome, error) {
	o := &outcome{}
	prof, ok := bench89.ProfileByName("s953")
	if !ok {
		return nil, fmt.Errorf("no s953 stand-in profile")
	}
	opts := atpg.DefaultOptions()
	opts.BacktrackLimit = 3
	opts.RandomPatterns = 0
	opts.Compact = false
	opts.Workers = e.workers

	var (
		c     *netlist.Circuit
		flist []faults.Fault
		podem atpg.ResultSummary // the first verify pass
	)
	samePODEM := func(res *atpg.Result) error {
		if got := res.Summary(c.Name); !reflect.DeepEqual(got, podem) {
			return fmt.Errorf("settle: repeated PODEM pass differs: %d aborted, %d patterns (want %d, %d)",
				got.Aborted, got.PatternCount, podem.Aborted, podem.PatternCount)
		}
		return nil
	}
	err := setUp(e, o, settleSetups, func(sp *tspan, layer func(string, time.Duration)) error {
		g := e.tr.start("bench89.generate", sp)
		var err error
		c, err = bench89.Generate(prof)
		layer("bench89.generate_s", g.end())
		if err != nil {
			return err
		}
		flist = faults.CollapsedUniverse(c)
		vs := e.tr.start("verify", sp)
		res, err := atpg.GenerateContext(context.Background(), c, opts)
		vs.end()
		if err != nil {
			return err
		}
		if len(o.setup) == 0 {
			podem = res.Summary(c.Name)
		}
		return samePODEM(res)
	})
	if err != nil {
		return nil, err
	}

	opts.Obs = e.col
	var first *settleGolden
	start := e.tr.now()
	for another(e, o, 1, start) {
		op := e.tr.start("op", nil)
		sp := e.tr.start("atpg.generate", op)
		res, err := atpg.GenerateContext(context.Background(), c, opts)
		sp.end()
		if err != nil {
			return nil, err
		}
		if err := samePODEM(res); err != nil {
			return nil, err
		}
		aborted := res.NumAborted
		sp = e.tr.start("sat.settle", op)
		rep := atpg.SettleAborted(c, flist, res, e.col, e.workers)
		sp.end()
		o.ops = append(o.ops, op.end())
		o.attempted++

		if res.NumAborted != 0 || res.Incomplete ||
			res.NumDetected+res.NumRedundant+res.NumProvedRedundant != res.NumFaults {
			return nil, fmt.Errorf("settle: accounting not exact after settlement: %+v", res.Summary(c.Name))
		}
		got := &settleGolden{
			Faults: res.NumFaults, Detected: res.NumDetected, Redundant: res.NumRedundant,
			Aborted: aborted, ProvedRedundant: rep.ProvedRedundant, CubesAdded: rep.CubesAdded,
			Conflicts: rep.Conflicts, Patterns: res.PatternCount(),
			Coverage: res.Coverage, EffectiveCoverage: res.EffectiveCoverage,
		}
		if first == nil {
			if err := checkGolden(e, "settle.json", goldenJSON(got)); err != nil {
				return nil, err
			}
			first = got
		} else if !reflect.DeepEqual(first, got) {
			return nil, fmt.Errorf("settle: repeated run differs")
		}
	}
	return o, nil
}
