// Command tdvcalc computes the monolithic-vs-modular test data volume
// comparison of Sinanoglu & Marinissen (DATE 2008) for an SOC description.
//
// Usage:
//
//	tdvcalc -f design.soc [-tmono N]
//	tdvcalc -builtin p34392
//	tdvcalc -f design.soc -lint    # design-rule preflight; refuse on errors
//
// The input format is the line-oriented SOC description of internal/itc02
// (run with -example to print a template). -builtin accepts any of the ten
// ITC'02 Table 4 SOC names.
//
// Observability (shared with atpgrun/socx/socd):
//
//	tdvcalc -builtin p34392 -trace run.jsonl  # structured JSONL event trace
//	tdvcalc -builtin p34392 -metrics          # end-of-run counters to stderr
//	tdvcalc -builtin p34392 -json             # machine-readable run manifest to stdout
//
// Exit codes: 0 success, 1 runtime failure, 2 usage error.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/itc02"
	"repro/internal/lint"
	"repro/internal/obs"
	"repro/internal/report"
)

const prog = "tdvcalc"

func main() { os.Exit(run()) }

// run is the whole command; every return path has already flushed the
// trace sink and written the manifest.
func run() int {
	var (
		file    = flag.String("f", "", "SOC description file (- for stdin)")
		builtin = flag.String("builtin", "", "built-in ITC'02 SOC name (e.g. p34392)")
		tmono   = flag.Int("tmono", -1, "override the monolithic pattern count")
		example = flag.Bool("example", false, "print an example SOC description and exit")
		lintPre = flag.Bool("lint", false, "preflight the SOC through the design-rule linter; refuse to run on errors")
		jsonOut = flag.Bool("json", false, "write the run manifest as JSON to stdout instead of the human report")
	)
	var ob cli.Obs
	ob.Register(flag.CommandLine)
	flag.Parse()

	if *example {
		fmt.Print(itc02.SOCString(itc02.P34392()))
		return 0
	}
	if *file == "" && *builtin == "" {
		cli.Errorf(prog, "need -f <file> or -builtin <name>; see -help")
		return cli.ExitUsage
	}

	ob.Start(prog)
	reg := ob.Registry()
	if *jsonOut && reg == nil {
		// The manifest embeds a metrics snapshot, so -json alone still
		// collects metrics (but no trace, no profile).
		reg = obs.NewRegistry()
	}

	man := obs.NewManifest(prog, 0)
	man.SetOption("lint", *lintPre)
	if *tmono >= 0 {
		man.SetOption("tmono", *tmono)
	}

	fail := func(code int, err error) int {
		cli.Errorf(prog, "%v", err)
		man.SetResult("error", err.Error())
		finish(&ob, man, reg, *jsonOut)
		return code
	}

	// A profile from -f is read once, from the file or from stdin, and the
	// linter and the parser see the same bytes: lint first, so a broken
	// input reports every finding, not the parser's first error.
	var (
		s   *core.SOC
		src []byte
		err error
	)
	name := *builtin
	switch {
	case *builtin != "":
		s, err = itc02.SOCByName(*builtin)
	case *file == "-":
		name = "stdin"
		src, err = io.ReadAll(os.Stdin)
	default:
		name = *file
		src, err = os.ReadFile(*file)
	}
	man.SetOption("soc", name)
	if err != nil {
		return fail(cli.ExitRuntime, err)
	}
	if *builtin == "" {
		if *lintPre {
			if code, err := lintGate(man, name, lint.CheckSOCSource(name, string(src))); code != 0 {
				return fail(code, err)
			}
		}
		if s, err = itc02.ParseSOC(bytes.NewReader(src)); err != nil {
			return fail(cli.ExitRuntime, err)
		}
	}
	if *tmono >= 0 {
		s.TMono = *tmono
	}
	// A builtin has no source: the bookkeeping and TDV-precondition rules
	// still apply to the profile, tmono override included.
	if *lintPre && *builtin != "" {
		if code, err := lintGate(man, name, lint.CheckSOC(s)); code != 0 {
			return fail(code, err)
		}
	}
	if err := s.Validate(); err != nil {
		return fail(cli.ExitRuntime, err)
	}

	r := s.Analyze()
	man.SetResult("modules", r.NumModules)
	man.SetResult("cores", r.NumCores)
	man.SetResult("t_max", r.TMax)
	man.SetResult("norm_stdev", r.NormStdev)
	man.SetResult("tdv_modular", r.TDVModular)
	man.SetResult("tdv_mono_opt", r.TDVMonoOpt)
	man.SetResult("penalty", r.Penalty)
	man.SetResult("benefit", r.Benefit)
	man.SetResult("reduction_vs_opt", r.ReductionVsOpt)
	if r.TDVMonoAct > 0 {
		man.SetResult("tdv_mono_act", r.TDVMonoAct)
		man.SetResult("ratio_vs_actual", r.RatioVsActual)
		man.SetResult("pessimism_factor", r.PessimismFactor)
	}

	if !*jsonOut {
		t := report.New("Per-module test data volume (Eq. 4/5)",
			"Module", "I", "O", "B", "S", "T", "ISOCOST", "TDV")
		for _, m := range s.Modules() {
			t.AddRow(m.Name,
				fmt.Sprint(m.Inputs), fmt.Sprint(m.Outputs), fmt.Sprint(m.Bidirs),
				fmt.Sprint(m.ScanCells), fmt.Sprint(m.Patterns),
				report.Int(m.ISOCost()), report.Int(m.ModularTDV()))
		}
		t.AddFooter("SOC (modular)", "", "", "", "", "", "", report.Int(r.TDVModular))
		fmt.Println(t.String())

		fmt.Printf("modules: %d (%d cores + top)    T_max: %d    norm stdev of T: %.2f\n",
			r.NumModules, r.NumCores, r.TMax, r.NormStdev)
		fmt.Printf("TDV_mono_opt (Eq. 3):  %s\n", report.Int(r.TDVMonoOpt))
		if r.TDVMonoAct > 0 {
			fmt.Printf("TDV_mono (Eq. 1):      %s  (T_mono = %d)\n", report.Int(r.TDVMonoAct), r.TMono)
		}
		fmt.Printf("TDV_penalty (Eq. 7):   %s (%s of mono_opt)\n", report.Int(r.Penalty), report.Pct(r.PenaltyPctVsOpt))
		fmt.Printf("TDV_benefit (Eq. 8):   %s (%s of mono_opt)\n", report.Int(r.Benefit), report.Pct(-r.BenefitPctVsOpt))
		fmt.Printf("modular vs mono_opt:   %s\n", report.Pct(r.ReductionVsOpt))
		if r.RatioVsActual > 0 {
			fmt.Printf("reduction ratio:       %s (pessimistic %s, pessimism factor %.1fx)\n",
				report.Ratio(r.RatioVsActual), report.Ratio(r.RatioVsOpt), r.PessimismFactor)
		}
	}
	finish(&ob, man, reg, *jsonOut)
	return 0
}

// lintGate prints the preflight report to stderr, records the counts on
// the manifest, and returns the exit code the findings demand: 0 to
// proceed (warnings and infos never block), ExitRuntime with the refusal
// on errors.
func lintGate(man *obs.Manifest, name string, lr *lint.Report) (int, error) {
	cli.Check(prog, lr.WriteText(os.Stderr))
	man.SetResult("lint_errors", lr.Count(lint.Error))
	man.SetResult("lint_warnings", lr.Count(lint.Warning))
	if lr.HasErrors() {
		return cli.ExitRuntime, fmt.Errorf("%s failed lint with %d error(s); refusing to run", name, lr.Count(lint.Error))
	}
	return 0, nil
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
