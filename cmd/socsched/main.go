// Command socsched runs the wrapper/TAM co-optimizer over the ITC'02
// benchmark set: per-core wrapper staircases, diagonal-heuristic rectangle
// packing onto a fixed-width TAM, and the TAM-width vs test-time vs TDV
// Pareto frontier.
//
// Usage:
//
//	socsched                        # sweep all ten SOCs over TAM 16..64
//	socsched -soc d695              # sweep one SOC
//	socsched -soc d695 -tam 32      # one schedule; prints the placements
//	socsched -soc d695 -tam 32 -out s.json  # write the schedule artifact
//	socsched -workers 8             # fan the sweep out via internal/par
//	socsched -power 120000          # power-budget every packing
//
// Observability (shared with itc02x/atpgrun/socd):
//
//	socsched -trace run.jsonl  # structured JSONL event trace
//	socsched -metrics          # end-of-run counters to stderr
//	socsched -json             # machine-readable run manifest to stdout
//
// The output is deterministic: the same flags produce byte-identical
// schedules and frontiers for every -workers value, which CI enforces.
//
// Exit codes: 0 success, 1 runtime failure, 2 usage error.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/internal/cli"
	"repro/internal/coopt"
	"repro/internal/itc02"
	"repro/internal/report"
	"repro/internal/runctl"
)

const prog = "socsched"

// sweepWidths is the default TAM sweep of the benchmark evaluation:
// 16..64 in steps of 8 (the widths the TAM literature tabulates).
func sweepWidths() []int { return []int{16, 24, 32, 40, 48, 56, 64} }

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	s := cli.NewSession(prog, stdout, stderr)
	var (
		socName = s.Flags.String("soc", "", "schedule one benchmark SOC (default: all ten)")
		tamW    = s.Flags.Int("tam", 0, "single TAM width: emit the full schedule instead of a sweep")
		power   = s.Flags.Int64("power", 0, "power budget for concurrently tested cores (0 = unconstrained)")
		workers = s.Flags.Int("workers", 1, "parallel packings during a sweep")
		outPath = s.Flags.String("out", "", "write the schedule/frontier JSON artifact to `file` (atomic)")
	)
	s.JSONFlag("write the run manifest as JSON to stdout instead of the human tables")
	if code, ok := s.Parse(args); !ok {
		return code
	}
	if s.Flags.NArg() > 0 {
		return s.Usagef("unexpected arguments %v; see -help", s.Flags.Args())
	}
	if *tamW != 0 && *socName == "" {
		return s.Usagef("-tam requires -soc (a single schedule is per-SOC)")
	}
	if *workers < 1 {
		return s.Usagef("-workers must be >= 1")
	}
	// A sweep is checked at its widest width, which bounds the others.
	opts := coopt.Options{TAMWidth: *tamW, PowerBudget: *power}
	if *tamW == 0 {
		opts.TAMWidth = slices.Max(sweepWidths())
	}
	if err := opts.Validate(); err != nil {
		return s.Usagef("%v", err)
	}

	if code := s.Start(0); code != 0 {
		return code
	}
	man := s.Man
	man.SetOption("soc", *socName)
	man.SetOption("tam", *tamW)
	man.SetOption("power", *power)
	man.SetOption("workers", *workers)

	if *tamW != 0 {
		soc, err := itc02.SOCByName(*socName)
		if err != nil {
			return s.Fail(cli.ExitRuntime, err)
		}
		sch, err := coopt.Optimize(soc, opts)
		if err != nil {
			return s.Fail(cli.ExitRuntime, err)
		}
		art, err := sch.Encode()
		if err != nil {
			return s.Fail(cli.ExitRuntime, err)
		}
		if *outPath != "" {
			if err := runctl.WriteFileAtomic(*outPath, art); err != nil {
				return s.Fail(cli.ExitRuntime, err)
			}
		}
		man.SetResult("total_time", sch.TotalTime)
		man.SetResult("lower_bound", sch.LowerBound)
		man.SetResult("lb_ratio", sch.LBRatio)
		man.SetResult("tdv_bits", sch.TDVBits)
		man.SetResult("utilization", sch.Utilization)
		if !s.JSON {
			printSchedule(stdout, sch)
		}
		return s.Finish()
	}

	names := []string{*socName}
	if *socName == "" {
		names = names[:0]
		for _, row := range itc02.PublishedTable4() {
			names = append(names, row.Name)
		}
	}
	type socFrontier struct {
		SOC      string                `json:"soc"`
		Frontier []coopt.FrontierPoint `json:"frontier"`
	}
	var all []socFrontier
	for _, name := range names {
		soc, err := itc02.SOCByName(name)
		if err != nil {
			return s.Fail(cli.ExitRuntime, err)
		}
		points, err := coopt.Sweep(soc, sweepWidths(), *workers, *power)
		if err != nil {
			return s.Fail(cli.ExitRuntime, fmt.Errorf("%s: %w", name, err))
		}
		all = append(all, socFrontier{SOC: name, Frontier: points})
		if !s.JSON {
			printFrontier(stdout, name, points)
		}
	}
	if *outPath != "" {
		b, err := json.Marshal(all)
		if err != nil {
			return s.Fail(cli.ExitRuntime, err)
		}
		if err := runctl.WriteFileAtomic(*outPath, append(b, '\n')); err != nil {
			return s.Fail(cli.ExitRuntime, err)
		}
	}
	man.SetResult("socs", len(all))
	man.SetResult("widths", len(sweepWidths()))
	return s.Finish()
}

// printSchedule renders the single-width schedule: the placement table and
// the abort-on-fail ordering comparison.
func printSchedule(w io.Writer, sch *coopt.Schedule) {
	t := report.New(fmt.Sprintf("%s schedule, TAM width %d", sch.SOC, sch.TAMWidth),
		"Core", "W", "Lines", "Start", "Finish", "IdleBits")
	for _, p := range sch.Placements {
		t.AddRow(p.Core, fmt.Sprint(p.Width), lineRange(p.Lines),
			report.Int(p.Start), report.Int(p.Finish), report.Int(p.IdleBits))
	}
	t.AddFooter("total", "", "", "", report.Int(sch.TotalTime), report.Int(sch.WrapperIdleBits))
	fmt.Fprintln(w, t.String())
	fmt.Fprintf(w, "lower bound %s   ratio %s   TDV %s bits   useful %s   utilization %s\n",
		report.Int(sch.LowerBound), report.Fixed2(sch.LBRatio),
		report.Int(sch.TDVBits), report.Int(sch.UsefulBits), pct(sch.Utilization))
	fmt.Fprintf(w, "abort-on-fail: packed E=%.1f, optimal E=%.1f (%s better)\n",
		sch.Abort.PackedExpected, sch.Abort.OptimalExpected, pct(sch.Abort.Improvement))
}

// pct formats a fraction as an unsigned percentage — these columns are
// absolute quantities, not deltas, so report.Pct's forced sign misleads.
func pct(f float64) string { return fmt.Sprintf("%.1f%%", f*100) }

// printFrontier renders one SOC's sweep as the Pareto table.
func printFrontier(w io.Writer, name string, points []coopt.FrontierPoint) {
	t := report.New(fmt.Sprintf("%s TAM-width sweep", name),
		"W", "Time", "LB", "Ratio", "TDV bits", "Util", "Pareto")
	for _, p := range points {
		mark := ""
		if p.Pareto {
			mark = "*"
		}
		t.AddRow(fmt.Sprint(p.TAMWidth), report.Int(p.TotalTime), report.Int(p.LowerBound),
			report.Fixed2(p.LBRatio), report.Int(p.TDVBits), pct(p.Utilization), mark)
	}
	fmt.Fprintln(w, t.String())
}

// lineRange compacts an ascending line list into "a-b" when contiguous
// (the common case) and a comma list otherwise.
func lineRange(lines []int) string {
	if n := len(lines); n > 1 && lines[n-1]-lines[0] == n-1 {
		return fmt.Sprintf("%d-%d", lines[0], lines[n-1])
	}
	s := make([]string, len(lines))
	for i, l := range lines {
		s[i] = fmt.Sprint(l)
	}
	return strings.Join(s, ",")
}
