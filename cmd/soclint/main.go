// soclint is the static verification front end of the repository: it runs
// the internal/lint design-rule checks over ISCAS'89-style .bench netlists
// and ITC'02-style .soc profiles before any ATPG or TDV computation spends
// time on them.
//
// Usage:
//
//	soclint [flags] path...
//
// Each path is a .bench file, a .soc file, or a directory (walked
// recursively for both extensions). Diagnostics print one per line in
// "file:line: severity: RULE: message" form, or as structured "lint.diag"
// JSONL events with -json (followed by a final "lint.manifest" event
// carrying the run's counts). -sat adds the formal rules NL013/NL014 (SAT-proved
// constant nets and untestable faults); -cec proves each netlist's
// compiled PPSFP program equivalent to its source, reporting CEC001 with
// a counterexample on divergence. The exit code is the contract scripts
// rely on:
// 0 when no error-severity findings exist (warnings and infos are
// reported but do not fail the run), 1 when errors were found (or
// warnings, under -warn-as-error), 2 for usage problems.
package main

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/cli"
	"repro/internal/faultsim"
	"repro/internal/lint"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/sat"
)

const prog = "soclint"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fset := cli.NewFlagSet(prog, stderr)
	jsonOut := fset.Bool("json", false, "emit diagnostics as JSONL lint.diag events on stdout")
	quiet := fset.Bool("q", false, "suppress info-severity diagnostics")
	warnAsError := fset.Bool("warn-as-error", false, "exit 1 on warnings as well as errors")
	maxFanout := fset.Int("max-fanout", lint.DefaultOptions().MaxFanout, "NL010 fanout threshold (0 disables)")
	scoapLimit := fset.Int("scoap-limit", 0, "enable NL011 for nets whose SCOAP difficulty reaches `n` (0 disables)")
	scoapTop := fset.Int("scoap", 0, "print the `k` hardest nets of each netlist by SCOAP difficulty")
	satRules := fset.Bool("sat", false, "enable the SAT-backed rules NL013 (provably-constant net) and NL014 (provably-untestable fault)")
	cec := fset.Bool("cec", false, "prove each netlist's compiled PPSFP program equivalent to its source (CEC001 on divergence)")
	rules := fset.Bool("rules", false, "print the rule catalog and exit")
	fset.Usage = func() {
		fmt.Fprintf(stderr, "usage: %s [flags] path...\n", prog)
		fmt.Fprintf(stderr, "lints .bench netlists and .soc profiles; directories are walked recursively\n")
		fset.PrintDefaults()
	}
	if code, ok := cli.Parse(fset, args); !ok {
		return code
	}

	if *rules {
		printRules(stdout)
		return 0
	}
	if fset.NArg() == 0 {
		fset.Usage()
		return cli.ExitUsage
	}
	files, err := expandPaths(fset.Args())
	if err != nil {
		return cli.Exitf(stderr, prog, cli.ExitRuntime, "%v", err)
	}
	if len(files) == 0 {
		return cli.Exitf(stderr, prog, cli.ExitUsage, "no .bench or .soc files found")
	}

	opt := lint.Options{MaxFanout: *maxFanout, SCOAPLimit: *scoapLimit, SAT: *satRules}
	report := &lint.Report{}
	var cecChecked, cecProved, cecStructural int
	var cecConflicts int64
	for _, f := range files {
		var (
			r   *lint.Report
			c   *netlist.Circuit // the netlist the lint pass built, nil on errors
			err error
		)
		switch filepath.Ext(f) {
		case ".bench":
			r, c, err = lint.CheckBenchFile(f, opt)
		case ".soc":
			r, err = lint.CheckSOCFile(f)
		}
		if err != nil {
			return cli.Exitf(stderr, prog, cli.ExitRuntime, "%v", err)
		}
		if c != nil && *cec {
			res := checkCEC(f, c, r)
			cecChecked++
			cecConflicts += res.Conflicts
			if res.Equivalent {
				cecProved++
			}
			if res.Structural {
				cecStructural++
			}
		}
		report.Merge(r)
		if c != nil && *scoapTop > 0 {
			printScoapReport(stdout, f, c, *scoapTop)
		}
	}
	report.Sort()
	if *quiet {
		kept := report.Diags[:0]
		for _, d := range report.Diags {
			if d.Sev != lint.Info {
				kept = append(kept, d)
			}
		}
		report.Diags = kept
	}

	if *jsonOut {
		sink := obs.NewJSONLSink(stdout)
		report.EmitTo(sink)
		// The run manifest is the final event: per-rule and CEC counts,
		// zero-timed like every lint event so identical runs stay
		// byte-identical.
		fields := []obs.Field{
			obs.F("tool", prog),
			obs.F("files", len(files)),
			obs.F("errors", report.Count(lint.Error)),
			obs.F("warnings", report.Count(lint.Warning)),
		}
		if *satRules {
			fields = append(fields,
				obs.F("nl013", countRule(report, "NL013")),
				obs.F("nl014", countRule(report, "NL014")))
		}
		if *cec {
			fields = append(fields,
				obs.F("cec_checked", cecChecked),
				obs.F("cec_proved", cecProved),
				obs.F("cec_structural", cecStructural),
				obs.F("cec_conflicts", cecConflicts))
		}
		sink.Emit(obs.Event{Name: "lint.manifest", Fields: fields})
		if err := sink.Err(); err != nil {
			return cli.Exitf(stderr, prog, cli.ExitRuntime, "writing JSONL: %v", err)
		}
	} else if err := report.WriteText(stdout); err != nil {
		return cli.Exitf(stderr, prog, cli.ExitRuntime, "writing report: %v", err)
	}

	if report.HasErrors() || (*warnAsError && report.Count(lint.Warning) > 0) {
		return cli.ExitRuntime
	}
	return 0
}

// expandPaths resolves the argument list: files are taken as given (their
// extension must be lintable), directories are walked recursively for
// .bench and .soc entries. The result is sorted and de-duplicated so runs
// are deterministic regardless of argument order.
func expandPaths(args []string) ([]string, error) {
	seen := map[string]bool{}
	var files []string
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			files = append(files, p)
		}
	}
	for _, arg := range args {
		info, err := os.Stat(arg)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			switch filepath.Ext(arg) {
			case ".bench", ".soc":
				add(arg)
			default:
				return nil, fmt.Errorf("%s: not a .bench or .soc file", arg)
			}
			continue
		}
		err = filepath.WalkDir(arg, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				switch filepath.Ext(p) {
				case ".bench", ".soc":
					add(p)
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(files)
	return files, nil
}

// checkCEC compiles the netlist at path into its PPSFP program and proves
// the two equivalent with the SAT miter. A divergence — which would mean
// the kernel compiler miscompiles this circuit — is reported as a CEC001
// error carrying the counterexample stimulus. The verdict is deterministic:
// repeated runs produce identical findings and conflict counts.
func checkCEC(path string, c *netlist.Circuit, r *lint.Report) sat.CECResult {
	res := sat.CheckProgram(c, faultsim.Compile(c))
	if !res.Equivalent {
		detail := res.Reason
		if detail == "" {
			detail = fmt.Sprintf("counterexample %s diverges at observation point %d", res.Counterexample, res.FramePos)
		}
		r.Add("CEC001", lint.Pos{File: path}, c.Name,
			"compiled PPSFP program is not equivalent to netlist %q: %s", c.Name, detail)
	}
	return res
}

// countRule counts the findings of one rule ID.
func countRule(r *lint.Report, id string) int {
	n := 0
	for _, d := range r.Diags {
		if d.Rule == id {
			n++
		}
	}
	return n
}

// printScoapReport prints the k hardest nets of the netlist at path.
func printScoapReport(w io.Writer, path string, c *netlist.Circuit, k int) {
	rows := lint.ComputeSCOAP(c).Hardest(k)
	fmt.Fprintf(w, "%s: %d hardest nets by SCOAP (CC0/CC1/CO, worst stuck-at difficulty):\n", path, len(rows))
	for _, r := range rows {
		fmt.Fprintf(w, "  %-20s %6s %6s %6s  worst %s\n", r.Name, r.CC0, r.CC1, r.CO, r.Worst)
	}
}

func printRules(w io.Writer) {
	fmt.Fprintln(w, "rule    severity  description")
	for _, r := range lint.Catalog {
		fmt.Fprintf(w, "%-7s %-9s %s\n", r.ID, r.Sev, r.Doc)
	}
}
