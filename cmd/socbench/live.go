package main

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"time"

	"repro"
	"repro/internal/obs"
)

const (
	// liveSetups is how many times live_repro sets up. Each set-up holds a
	// ~3.5 s verify pass, so three fit beside the timed operations in a run
	// of under 30 s.
	liveSetups = 3
	// liveVerifySeed is the seed of the verify pass: the instance the
	// golden files hold, whatever --seed is, so every run checks a golden
	// and setup_s does not move with --seed.
	liveVerifySeed = 1
	// liveMinOps is the fewest timed operations a run makes, so op_p50_ms
	// never rests on a single sample.
	liveMinOps = 2
	// liveSeedStride separates the seeds of successive operations, so the
	// operations of nearby --seed values do not overlap.
	liveSeedStride = 1000
)

// liveGolden is the checked part of one live experiment.
type liveGolden struct {
	Cores        []repro.LiveCore
	TMono        int
	MonoCoverage float64
	MaxCoreT     int
	Report       repro.Report
}

func liveView(r *repro.LiveResult) liveGolden {
	return liveGolden{Cores: r.Cores, TMono: r.TMono, MonoCoverage: r.MonoCoverage, MaxCoreT: r.MaxCoreT, Report: r.Report}
}

// renderPaper renders Tables 1-4 and Figures 1-5, the reproduction's
// profile-mode output.
func renderPaper() ([]byte, error) {
	t4, err := repro.RenderTable4()
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	for _, s := range []string{
		repro.RenderTable1(), repro.RenderTable2(), repro.RenderTable3(), t4,
		repro.RenderFigure1(), repro.RenderFigure2(), repro.RenderFigure3(),
		repro.RenderFigure4(), repro.RenderFigure5(),
	} {
		b.WriteString(s)
		b.WriteString("\n")
	}
	return b.Bytes(), nil
}

// liveRepro is the paper's own experiment. Each set-up renders the
// profile-mode tables and figures, then runs the verify pass: live SOC1 at
// GateScale 1 on liveVerifySeed. Both must equal their goldens, so every
// repeat also reproduces the first. Each timed operation runs live SOC1
// and SOC2 on one seed, --seed first and then --seed + k·liveSeedStride,
// and must pass the Eq. 2 and Eq. 6 checks; on the verify seed, the first
// operation must also equal the verify pass and the SOC2 golden.
func liveRepro(e *env) (*outcome, error) {
	o := &outcome{}
	var verified liveGolden
	err := setUp(e, o, liveSetups, func(sp *tspan, layer func(string, time.Duration)) error {
		ts := e.tr.start("core.tables", sp)
		text, err := renderPaper()
		layer("core.tables_s", ts.end())
		if err != nil {
			return err
		}
		if err := checkGolden(e, "tables.txt", text); err != nil {
			return err
		}
		vs := e.tr.start("verify", sp)
		r, err := liveRun(e, "SOC1", liveVerifySeed, vs, nil)
		vs.end()
		if err != nil {
			return err
		}
		verified = liveView(r)
		return checkGolden(e, "live_soc1_seed1.json", goldenJSON(verified))
	})
	if err != nil {
		return nil, err
	}

	start := e.tr.now()
	for k := int64(0); another(e, o, liveMinOps, start); k++ {
		s := e.seed + k*liveSeedStride
		op := e.tr.start("op", nil)
		r1, err := liveRun(e, "SOC1", s, op, e.col)
		if err != nil {
			return nil, err
		}
		r2, err := liveRun(e, "SOC2", s, op, e.col)
		if err != nil {
			return nil, err
		}
		o.ops = append(o.ops, op.end())
		o.attempted += 2
		if s != liveVerifySeed {
			continue
		}
		if !reflect.DeepEqual(liveView(r1), verified) {
			return nil, fmt.Errorf("live SOC1 seed %d: timed run differs from the verify pass", s)
		}
		if err := checkGolden(e, "live_soc2_seed1.json", goldenJSON(liveView(r2))); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// liveRun runs the live experiment of one SOC ("SOC1" or "SOC2") at
// GateScale 1, instrumented by col, and checks the properties every seed
// must have: Eq. 2 (T_mono >= max T_i) and the exact Eq. 6 identity.
func liveRun(e *env, soc string, seed int64, parent *tspan, col *obs.Collector) (*repro.LiveResult, error) {
	atpg := repro.DefaultATPGOptions()
	atpg.Seed = seed
	opts := repro.LiveOptions{ATPG: atpg, GateScale: 1, Seed: seed, Workers: e.workers, Obs: col}
	exp := repro.LiveSOC1
	if soc == "SOC2" {
		exp = repro.LiveSOC2
	}
	sp := e.tr.start("live."+strings.ToLower(soc), parent)
	r, err := exp(opts)
	sp.end()
	if err != nil {
		return nil, err
	}
	if !r.Eq2Holds() {
		return nil, fmt.Errorf("live %s seed %d: Eq. 2 violated: T_mono %d < max T_i %d", soc, seed, r.TMono, r.MaxCoreT)
	}
	if err := r.SOC.VerifyIdentity(r.TMono); err != nil {
		return nil, fmt.Errorf("live %s seed %d: %w", soc, seed, err)
	}
	return r, nil
}
