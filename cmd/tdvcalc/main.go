// Command tdvcalc computes the monolithic-vs-modular test data volume
// comparison of Sinanoglu & Marinissen (DATE 2008) for an SOC description.
//
// Usage:
//
//	tdvcalc -f design.soc [-tmono N]
//	tdvcalc -builtin p34392
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
	"fmt"
	"io"
	"os"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/itc02"
	"repro/internal/report"
)

const prog = "tdvcalc"

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

// run is the whole command; every return path has already flushed the
// trace sink and written the manifest.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	s := cli.NewSession(prog, stdout, stderr)
	var (
		file    = s.Flags.String("f", "", "SOC description file (- for stdin)")
		builtin = s.Flags.String("builtin", "", "built-in ITC'02 SOC name (e.g. p34392)")
		tmono   = s.Flags.Int("tmono", -1, "override the monolithic pattern count")
		example = s.Flags.Bool("example", false, "print an example SOC description and exit")
	)
	s.JSONFlag("write the run manifest as JSON to stdout instead of the human report")
	if code, ok := s.Parse(args); !ok {
		return code
	}

	if *example {
		fmt.Fprint(stdout, itc02.SOCString(itc02.P34392()))
		return 0
	}
	if *file == "" && *builtin == "" {
		return s.Usagef("need -f <file> or -builtin <name>; see -help")
	}

	if code := s.Start(0); code != 0 {
		return code
	}
	man := s.Man
	if *tmono >= 0 {
		man.SetOption("tmono", *tmono)
	}

	var (
		soc *core.SOC
		err error
	)
	name := *builtin
	switch {
	case *builtin != "":
		soc, err = itc02.SOCByName(*builtin)
	case *file == "-":
		name = "stdin"
		soc, err = itc02.ParseSOC(stdin)
	default:
		name = *file
		var f *os.File
		if f, err = os.Open(*file); err == nil {
			soc, err = itc02.ParseSOC(f)
			f.Close()
		}
	}
	man.SetOption("soc", name)
	if err != nil {
		return s.Fail(cli.ExitRuntime, err)
	}
	if *tmono >= 0 {
		soc.TMono = *tmono
	}
	if err := soc.Validate(); err != nil {
		return s.Fail(cli.ExitRuntime, err)
	}

	r := soc.Analyze()
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

	if !s.JSON {
		t := report.New("Per-module test data volume (Eq. 4/5)",
			"Module", "I", "O", "B", "S", "T", "ISOCOST", "TDV")
		for _, m := range soc.Modules() {
			t.AddRow(m.Name,
				fmt.Sprint(m.Inputs), fmt.Sprint(m.Outputs), fmt.Sprint(m.Bidirs),
				fmt.Sprint(m.ScanCells), fmt.Sprint(m.Patterns),
				report.Int(m.ISOCost()), report.Int(m.ModularTDV()))
		}
		t.AddFooter("SOC (modular)", "", "", "", "", "", "", report.Int(r.TDVModular))
		fmt.Fprintln(stdout, t.String())

		fmt.Fprintf(stdout, "modules: %d (%d cores + top)    T_max: %d    norm stdev of T: %.2f\n",
			r.NumModules, r.NumCores, r.TMax, r.NormStdev)
		fmt.Fprintf(stdout, "TDV_mono_opt (Eq. 3):  %s\n", report.Int(r.TDVMonoOpt))
		if r.TDVMonoAct > 0 {
			fmt.Fprintf(stdout, "TDV_mono (Eq. 1):      %s  (T_mono = %d)\n", report.Int(r.TDVMonoAct), r.TMono)
		}
		fmt.Fprintf(stdout, "TDV_penalty (Eq. 7):   %s (%s of mono_opt)\n", report.Int(r.Penalty), report.Pct(r.PenaltyPctVsOpt))
		fmt.Fprintf(stdout, "TDV_benefit (Eq. 8):   %s (%s of mono_opt)\n", report.Int(r.Benefit), report.Pct(-r.BenefitPctVsOpt))
		fmt.Fprintf(stdout, "modular vs mono_opt:   %s\n", report.Pct(r.ReductionVsOpt))
		if r.RatioVsActual > 0 {
			fmt.Fprintf(stdout, "reduction ratio:       %s (pessimistic %s, pessimism factor %.1fx)\n",
				report.Ratio(r.RatioVsActual), report.Ratio(r.RatioVsOpt), r.PessimismFactor)
		}
	}
	return s.Finish()
}
