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
	"flag"
	"fmt"
	"os"

	"repro"
	"repro/internal/cli"
	"repro/internal/lint"
	"repro/internal/obs"
	"repro/internal/par"
)

const prog = "socx"

func main() { os.Exit(run()) }

// run is the whole command; every return path has already flushed the
// trace sink and written the manifest.
func run() int {
	var (
		live    = flag.Bool("live", false, "run the live ATPG experiment instead of the published profiles")
		lintPre = flag.Bool("lint", false, "preflight the SOC profiles through the design-rule linter; refuse to run on errors")
		which   = flag.String("soc", "both", "SOC1, SOC2 or both")
		scale   = flag.Float64("scale", 1.0, "gate-count scale for the live stand-ins, in (0,1]")
		seed    = flag.Int64("seed", 1, "interconnect seed for the live flattening")
		jsonOut = flag.Bool("json", false, "write the run manifest as JSON to stdout instead of the rendered tables")
		workers = flag.Int("workers", 0, "worker pool bound for per-core ATPG and fault simulation (0 = NumCPU, 1 = serial; results are identical for every value)")
	)
	var ob cli.Obs
	ob.Register(flag.CommandLine)
	var rf cli.RunFlags
	rf.Register(flag.CommandLine)
	flag.Parse()

	switch *which {
	case "SOC1", "SOC2", "both":
	default:
		cli.Errorf(prog, "-soc must be SOC1, SOC2 or both, not %q", *which)
		return cli.ExitUsage
	}
	if !(*scale > 0 && *scale <= 1) {
		cli.Errorf(prog, "-scale must be in (0,1], got %g", *scale)
		return cli.ExitUsage
	}
	if err := rf.Validate(); err != nil {
		cli.Errorf(prog, "%v", err)
		return cli.ExitUsage
	}

	col := ob.Start(prog)
	reg := ob.Registry()
	if *jsonOut && reg == nil {
		reg = obs.NewRegistry()
		col = obs.New(reg, nil)
	}
	man := obs.NewManifest(prog, *seed)
	man.SetOption("live", *live)
	man.SetOption("lint", *lintPre)
	man.SetOption("soc", *which)
	man.SetOption("scale", *scale)
	man.SetOption("workers", par.Workers(*workers))
	if rf.Timeout > 0 {
		man.SetOption("timeout", rf.Timeout.String())
	}
	if rf.CheckpointPath != "" {
		man.SetOption("checkpoint", rf.CheckpointPath)
		man.SetOption("resume", rf.Resume)
	}

	// Preflight: both modes consume the same SOC profiles, so the linter
	// gates them identically. Warnings and infos report but never block.
	if *lintPre {
		lr := &lint.Report{}
		if *which == "SOC1" || *which == "both" {
			lr.Merge(lint.CheckSOC(repro.SOC1()))
		}
		if *which == "SOC2" || *which == "both" {
			lr.Merge(lint.CheckSOC(repro.SOC2()))
		}
		lr.Sort()
		cli.Check(prog, lr.WriteText(os.Stderr))
		man.SetResult("lint_errors", lr.Count(lint.Error))
		man.SetResult("lint_warnings", lr.Count(lint.Warning))
		if lr.HasErrors() {
			err := fmt.Errorf("SOC profiles failed lint with %d error(s); refusing to run", lr.Count(lint.Error))
			cli.Errorf(prog, "%v", err)
			man.SetResult("error", err.Error())
			finish(&ob, man, reg, *jsonOut)
			return cli.ExitRuntime
		}
	}

	if !*live {
		if *which == "SOC1" || *which == "both" {
			fmt.Println(repro.RenderTable1())
			fmt.Println(repro.RenderFigure4())
			man.SetResult("soc1_tdv_modular", repro.SOC1().TDVModular())
		}
		if *which == "SOC2" || *which == "both" {
			fmt.Println(repro.RenderTable2())
			fmt.Println(repro.RenderFigure5())
			man.SetResult("soc2_tdv_modular", repro.SOC2().TDVModular())
		}
		finish(&ob, man, reg, *jsonOut)
		return 0
	}

	ctx, interrupted, stop := rf.Context(context.Background())
	defer stop()

	opts := repro.LiveOptions{GateScale: *scale, Seed: *seed, Obs: col, Workers: *workers}
	if cc := rf.Checkpoint(); cc != nil {
		// The experiment derives one checkpoint file per ATPG stage from
		// this path, so each stage resumes independently.
		opts.Checkpoint = cc
	}
	run := func(name string, f func(context.Context, repro.LiveOptions) (*repro.LiveResult, error)) int {
		o := opts
		if opts.Checkpoint != nil && *which == "both" {
			// Distinct SOCs must not share stage checkpoint files.
			cc := *opts.Checkpoint
			cc.Path += "." + name
			o.Checkpoint = &cc
		}
		r, err := f(ctx, o)
		if err != nil {
			cli.Errorf(prog, "%s: %v", name, err)
			man.SetResult(name+"_error", err.Error())
			return cli.ExitCode(err, interrupted())
		}
		if !*jsonOut {
			fmt.Println(repro.RenderLive(r))
		}
		man.SetResult(name+"_t_mono", r.TMono)
		man.SetResult(name+"_max_core_t", r.MaxCoreT)
		man.SetResult(name+"_eq2_holds", r.Eq2Holds())
		man.SetResult(name+"_mono_coverage", r.MonoCoverage)
		return 0
	}
	if *which == "SOC1" || *which == "both" {
		if code := run("SOC1", repro.LiveSOC1Context); code != 0 {
			finish(&ob, man, reg, *jsonOut)
			return code
		}
	}
	if *which == "SOC2" || *which == "both" {
		if code := run("SOC2", repro.LiveSOC2Context); code != 0 {
			finish(&ob, man, reg, *jsonOut)
			return code
		}
	}
	finish(&ob, man, reg, *jsonOut)
	return 0
}

// finish seals the manifest, emits it as the final trace event, shuts the
// observability stack down, and prints the manifest to stdout with -json.
func finish(ob *cli.Obs, man *obs.Manifest, reg *obs.Registry, jsonOut bool) {
	man.Finish(reg)
	ob.Stop(man)
	if jsonOut {
		cli.Check(prog, man.WriteJSON(os.Stdout))
	}
}
