// Command socx runs the paper's SOC1/SOC2 experiments (Section 5.1,
// Tables 1 and 2): by default in profile mode (the published ATALANTA
// pattern counts), and with -live as a full end-to-end rerun — generate
// stand-in cores, per-core ATPG, flatten the SOC with isolation ripped
// out, monolithic ATPG, compare.
//
// Usage:
//
//	socx                     # Tables 1 and 2 from the published profiles
//	socx -lint               # design-rule preflight of the SOC profiles
//	socx -live -soc SOC1     # live experiment on SOC1
//	socx -live -soc SOC2 -scale 0.4
//
// Robustness (with -live):
//
//	socx -live -soc SOC2 -timeout 5m             # bounded run, exit 3 on expiry
//	socx -live -soc SOC2 -checkpoint soc2.ckpt   # per-stage checkpoints
//	socx -live -soc SOC2 -checkpoint soc2.ckpt -resume
//
// Ctrl-C cancels gracefully: trace flushed, manifest written, last
// checkpoint kept, exit code 130.
//
// Parallelism (with -live):
//
//	socx -live -soc SOC1 -workers 4   # per-core ATPG jobs run concurrently
//
// Results are bit-identical for every -workers value (default 0 = all
// CPUs; 1 = serial).
//
// Observability (most useful with -live):
//
//	socx -live -soc SOC1 -trace run.jsonl -metrics -cpuprofile cpu.pb
//	socx -live -soc SOC1 -json           # run manifest as JSON to stdout
//
// Exit codes: 0 success, 1 runtime failure, 2 usage error, 3 incomplete
// (timeout/cancellation), 130 interrupted (SIGINT/SIGTERM).
package main

import (
	"context"
	"fmt"
	"io"
	"os"

	"repro"
	"repro/internal/atpg"
	"repro/internal/cli"
	"repro/internal/lint"
	"repro/internal/par"
)

const prog = "socx"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command; every return path has already flushed the
// trace sink and written the manifest.
func run(args []string, stdout, stderr io.Writer) int {
	s := cli.NewSession(prog, stdout, stderr)
	var (
		live    = s.Flags.Bool("live", false, "run the live ATPG experiment instead of the published profiles")
		lintPre = s.Flags.Bool("lint", false, "preflight the SOC profiles through the design-rule linter; refuse to run on errors")
		which   = s.Flags.String("soc", "both", "SOC1, SOC2 or both")
		scale   = s.Flags.Float64("scale", 1.0, "gate-count scale for the live stand-ins, in (0,1]")
		seed    = s.Flags.Int64("seed", 1, "interconnect seed for the live flattening")
		workers = s.Flags.Int("workers", 0, "worker pool bound for per-core ATPG and fault simulation (0 = NumCPU, 1 = serial; results are identical for every value)")
	)
	s.JSONFlag("write the run manifest as JSON to stdout instead of the rendered tables")
	rf := s.RunFlags()
	if code, ok := s.Parse(args); !ok {
		return code
	}

	switch *which {
	case "SOC1", "SOC2", "both":
	default:
		return s.Usagef("-soc must be SOC1, SOC2 or both, not %q", *which)
	}
	soc1 := *which == "SOC1" || *which == "both"
	soc2 := *which == "SOC2" || *which == "both"
	if !(*scale > 0 && *scale <= 1) {
		return s.Usagef("-scale must be in (0,1], got %g", *scale)
	}
	// The live experiment runs ATPG at the default limits; -workers is
	// the one atpg option the command sets.
	opts := atpg.DefaultOptions()
	opts.Workers = *workers
	if err := opts.Validate(); err != nil {
		return s.Usagef("-%v", err)
	}

	if code := s.Start(*seed); code != 0 {
		return code
	}
	man := s.Man
	man.SetOption("live", *live)
	man.SetOption("lint", *lintPre)
	man.SetOption("soc", *which)
	man.SetOption("scale", *scale)
	man.SetOption("workers", par.Workers(*workers))

	// Preflight: both modes consume the same SOC profiles, so the linter
	// gates them identically. Warnings and infos report but never block.
	if *lintPre {
		lr := &lint.Report{}
		if soc1 {
			lr.Merge(lint.CheckSOC(repro.SOC1()))
		}
		if soc2 {
			lr.Merge(lint.CheckSOC(repro.SOC2()))
		}
		lr.Sort()
		if code := s.LintGate("SOC profiles", lr); code != 0 {
			return code
		}
	}

	if !*live {
		if soc1 {
			if !s.JSON {
				fmt.Fprintln(stdout, repro.RenderTable1())
				fmt.Fprintln(stdout, repro.RenderFigure4())
			}
			man.SetResult("soc1_tdv_modular", repro.SOC1().TDVModular())
		}
		if soc2 {
			if !s.JSON {
				fmt.Fprintln(stdout, repro.RenderTable2())
				fmt.Fprintln(stdout, repro.RenderFigure5())
			}
			man.SetResult("soc2_tdv_modular", repro.SOC2().TDVModular())
		}
		return s.Finish()
	}

	ctx, interrupted, stop := rf.Context(context.Background())
	defer stop()

	// The experiment derives one checkpoint file per ATPG stage from
	// -checkpoint, so each stage resumes independently.
	lo := repro.LiveOptions{GateScale: *scale, Seed: *seed, Obs: s.Col(), Workers: *workers, Checkpoint: rf.Checkpoint()}
	runSOC := func(name string, f func(context.Context, repro.LiveOptions) (*repro.LiveResult, error)) int {
		o := lo
		if lo.Checkpoint != nil && *which == "both" {
			// Distinct SOCs must not share stage checkpoint files.
			cc := *lo.Checkpoint
			cc.Path += "." + name
			o.Checkpoint = &cc
		}
		r, err := f(ctx, o)
		if err != nil {
			s.Errorf("%s: %v", name, err)
			man.SetResult(name+"_error", err.Error())
			return cli.ExitCode(err, interrupted())
		}
		if !s.JSON {
			fmt.Fprintln(stdout, repro.RenderLive(r))
		}
		man.SetResult(name+"_t_mono", r.TMono)
		man.SetResult(name+"_max_core_t", r.MaxCoreT)
		man.SetResult(name+"_eq2_holds", r.Eq2Holds())
		man.SetResult(name+"_mono_coverage", r.MonoCoverage)
		return 0
	}
	code := 0
	if soc1 {
		code = runSOC("SOC1", repro.LiveSOC1Context)
	}
	if soc2 && code == 0 {
		code = runSOC("SOC2", repro.LiveSOC2Context)
	}
	if c := s.Finish(); c != 0 {
		return c
	}
	return code
}
