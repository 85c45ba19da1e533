// Command itc02x reproduces the paper's ITC'02 benchmark evaluation
// (Section 5.2): Table 3 (the per-core p34392 computation) and Table 4
// (the ten-SOC comparison).
//
// Usage:
//
//	itc02x                 # Table 3 and Table 4
//	itc02x -soc d695       # detailed report for one benchmark
//	itc02x -emit p34392    # dump a benchmark in the .soc text format
//
// Observability (shared with atpgrun/socx/socd):
//
//	itc02x -trace run.jsonl  # structured JSONL event trace
//	itc02x -metrics          # end-of-run counters to stderr
//	itc02x -soc d695 -json   # machine-readable run manifest to stdout
//
// Exit codes: 0 success, 1 runtime failure, 2 usage error.
package main

import (
	"fmt"
	"io"
	"os"

	"repro"
	"repro/internal/cli"
	"repro/internal/itc02"
	"repro/internal/report"
)

const prog = "itc02x"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command; every return path has already flushed the
// trace sink and written the manifest.
func run(args []string, stdout, stderr io.Writer) int {
	s := cli.NewSession(prog, stdout, stderr)
	var (
		one  = s.Flags.String("soc", "", "print the per-module detail of one benchmark SOC")
		emit = s.Flags.String("emit", "", "dump one benchmark SOC in the text format")
	)
	s.JSONFlag("write the run manifest as JSON to stdout instead of the human tables")
	if code, ok := s.Parse(args); !ok {
		return code
	}
	if s.Flags.NArg() > 0 {
		return s.Usagef("unexpected arguments %v; see -help", s.Flags.Args())
	}

	if *emit != "" {
		soc, err := itc02.SOCByName(*emit)
		if err != nil {
			s.Errorf("%v", err)
			return cli.ExitRuntime
		}
		fmt.Fprint(stdout, itc02.SOCString(soc))
		return 0
	}

	if code := s.Start(0); code != 0 {
		return code
	}
	man := s.Man

	if *one != "" {
		man.SetOption("soc", *one)
		soc, err := itc02.SOCByName(*one)
		if err != nil {
			return s.Fail(cli.ExitRuntime, err)
		}
		r := soc.Analyze()
		man.SetResult("modules", r.NumModules)
		man.SetResult("tdv_modular", r.TDVModular)
		man.SetResult("tdv_mono_opt", r.TDVMonoOpt)
		man.SetResult("penalty", r.Penalty)
		man.SetResult("benefit", r.Benefit)
		man.SetResult("reduction_vs_opt", r.ReductionVsOpt)
		if !s.JSON {
			t := report.New(fmt.Sprintf("%s per-module TDV", soc.Name),
				"Module", "I", "O", "B", "S", "T", "TDV")
			for _, m := range soc.Modules() {
				t.AddRow(m.Name, fmt.Sprint(m.Inputs), fmt.Sprint(m.Outputs),
					fmt.Sprint(m.Bidirs), fmt.Sprint(m.ScanCells), fmt.Sprint(m.Patterns),
					report.Int(m.ModularTDV()))
			}
			t.AddFooter("SOC", "", "", "", "", "", report.Int(soc.TDVModular()))
			fmt.Fprintln(stdout, t.String())
			fmt.Fprintf(stdout, "TDV_mono_opt %s   penalty %s   benefit %s   change %s\n",
				report.Int(r.TDVMonoOpt), report.Int(r.Penalty), report.Int(r.Benefit),
				report.Pct(r.ReductionVsOpt))
		}
		return s.Finish()
	}

	t4, err := repro.RenderTable4()
	if err != nil {
		return s.Fail(cli.ExitRuntime, err)
	}
	man.SetResult("tables", []string{"figure3", "table3", "table4"})
	if !s.JSON {
		fmt.Fprintln(stdout, repro.RenderFigure3())
		fmt.Fprintln(stdout, repro.RenderTable3())
		fmt.Fprintln(stdout, t4)
	}
	return s.Finish()
}
