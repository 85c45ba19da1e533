// Command atpgrun runs the PODEM test generator on an ISCAS'89 .bench
// netlist and reports pattern count, fault coverage and compaction
// statistics — the per-core step of the modular test flow.
//
// Usage:
//
//	atpgrun -f core.bench [-backtrack 100] [-random 64] [-compact] [-seed 1] [-v]
//	atpgrun -standin s953          # run on a generated ISCAS'89 stand-in
//	atpgrun -f core.bench -cones   # per-cone decomposition (paper Sec. 3)
//	atpgrun -f core.bench -sat-prove  # settle aborted faults with the SAT prover
//
// Robustness:
//
//	atpgrun -standin s13207 -timeout 30s         # bounded run; partial results on expiry
//	atpgrun -standin s13207 -checkpoint run.ckpt # periodic atomic state saves
//	atpgrun -standin s13207 -checkpoint run.ckpt -resume   # continue an interrupted run
//
// -backtrack bounds each search by a count, not by time, so results never
// depend on the host; -timeout bounds the whole run.
//
// Ctrl-C (SIGINT) cancels the run gracefully: the trace is flushed, the
// manifest written, a final checkpoint saved, and the command exits 130.
//
// Parallelism:
//
//	atpgrun -standin s13207 -workers 8   # shard fault simulation over 8 workers
//	atpgrun -standin s13207 -workers 1   # force serial (identical results)
//	atpgrun -standin s953 -sat-prove -workers 2   # up to 2 SAT proofs in flight
//
// Results are bit-identical for every -workers value (default 0 = all
// CPUs), and checkpoints are interchangeable across worker counts.
//
// Observability:
//
//	atpgrun -standin s953 -trace run.jsonl   # structured event trace (JSONL)
//	atpgrun -standin s953 -metrics           # end-of-run counters to stderr
//	atpgrun -standin s953 -json              # machine-readable run manifest to stdout
//	atpgrun -standin s953 -cpuprofile cpu.pb # CPU profile of the run
//
// Exit codes: 0 success, 1 runtime failure, 2 usage error, 3 incomplete
// (timeout/cancellation), 130 interrupted (SIGINT/SIGTERM).
package main

import (
	"context"
	"fmt"
	"io"
	"os"

	"repro/internal/atpg"
	"repro/internal/bench89"
	"repro/internal/cli"
	"repro/internal/cones"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/netlist"
	"repro/internal/par"
	"repro/internal/report"
)

const prog = "atpgrun"

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

// run is the whole command; every return path has already flushed the
// trace sink and written the manifest, so an early error or interrupt
// never loses the observability record of the partial run.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	s := cli.NewSession(prog, stdout, stderr)
	var (
		file      = s.Flags.String("f", "", ".bench netlist file (- for stdin)")
		standin   = s.Flags.String("standin", "", "generate and use an ISCAS'89 stand-in (s713, s953, s1423, s5378, s13207, s15850)")
		backtrack = s.Flags.Int("backtrack", 100, "PODEM backtrack limit per fault")
		random    = s.Flags.Int("random", 64, "random bootstrap patterns (0 disables)")
		compact   = s.Flags.Bool("compact", true, "enable static compaction and reverse-order pruning")
		seed      = s.Flags.Int64("seed", 1, "seed for the random phase and X-fill")
		verbose   = s.Flags.Bool("v", false, "list aborted and redundant faults")
		coneMode  = s.Flags.Bool("cones", false, "per-cone analysis instead of whole-circuit ATPG")
		satProve  = s.Flags.Bool("sat-prove", false, "settle every aborted fault with the SAT redundancy prover: prove it redundant or add a proven test cube (exact coverage)")
		workers   = s.Flags.Int("workers", 0, "worker pool bound for parallel fault simulation and, with -sat-prove, for the SAT proofs in flight (0 = NumCPU, 1 = serial; results are identical for every value)")
	)
	s.JSONFlag("write the run manifest as JSON to stdout instead of the human summary")
	rf := s.RunFlags()
	if code, ok := s.Parse(args); !ok {
		return code
	}
	opts := atpg.Options{
		BacktrackLimit: *backtrack,
		RandomPatterns: *random,
		Compact:        *compact,
		Seed:           *seed,
		Checkpoint:     rf.Checkpoint(),
		Workers:        *workers,
	}
	if err := opts.Validate(); err != nil {
		return s.Usagef("-%v", err)
	}
	if *file == "" && *standin == "" {
		return s.Usagef("need -f <file> or -standin <name>; see -help")
	}
	if *satProve && *coneMode {
		return s.Usagef("-sat-prove settles whole-circuit runs; it cannot be combined with -cones")
	}

	if code := s.Start(*seed); code != 0 {
		return code
	}
	col := s.Col()
	opts.Obs = col
	man := s.Man
	man.SetOption("backtrack", *backtrack)
	man.SetOption("random", *random)
	man.SetOption("compact", *compact)
	man.SetOption("cones", *coneMode)
	man.SetOption("sat_prove", *satProve)
	man.SetOption("workers", par.Workers(*workers))

	ctx, interrupted, stop := rf.Context(context.Background())
	defer stop()

	var (
		c   *netlist.Circuit
		err error
	)
	switch {
	case *standin != "":
		prof, ok := bench89.ProfileByName(*standin)
		if !ok {
			return s.Fail(cli.ExitUsage, fmt.Errorf("unknown stand-in %q", *standin))
		}
		man.SetOption("circuit", *standin)
		c, err = bench89.GenerateObserved(prof, col)
	case *file == "-":
		man.SetOption("circuit", "stdin")
		c, err = netlist.ParseBench("stdin", stdin)
	default:
		man.SetOption("circuit", *file)
		var f *os.File
		f, err = os.Open(*file)
		if err == nil {
			defer f.Close()
			c, err = netlist.ParseBench(*file, f)
		}
	}
	if err != nil {
		return s.Fail(cli.ExitRuntime, err)
	}

	if !s.JSON {
		fmt.Fprintln(stdout, c.ComputeStats())
	}

	if *coneMode {
		a, err := cones.AnalyzeContext(ctx, c, opts)
		if err != nil {
			return s.Fail(cli.ExitCode(err, interrupted()), err)
		}
		if !s.JSON {
			t := report.New("Per-cone ATPG profile", "Apex", "Width", "Gates", "Patterns", "Coverage")
			for _, p := range a.Profiles {
				t.AddRow(p.Apex, fmt.Sprint(p.Width), fmt.Sprint(p.Size),
					fmt.Sprint(p.Patterns), fmt.Sprintf("%.1f%%", p.Coverage*100))
			}
			fmt.Fprintln(stdout, t.String())
			fmt.Fprintln(stdout, a.String())
		}
		man.SetResult("cones", len(a.Profiles))
		man.SetResult("max_patterns", a.MaxPatterns())
		man.SetResult("norm_stdev", core.NormStdev(a.PatternCounts()))
		man.SetResult("overlap_pairs", a.OverlapPairs)
		return s.Finish()
	}

	res, err := atpg.GenerateContext(ctx, c, opts)
	var settle atpg.SettleReport
	if err == nil && *satProve {
		// Only a complete generation run is settled: a partial run's
		// aborted set is an artifact of where it stopped, not of the search.
		// A stop during settlement leaves the unsettled faults aborted.
		settle, err = atpg.SettleAbortedContext(ctx, c, faults.CollapsedUniverse(c), res, col, *workers)
	}
	if res != nil {
		man.SetResult("faults", res.NumFaults)
		man.SetResult("detected", res.NumDetected)
		man.SetResult("redundant", res.NumRedundant)
		man.SetResult("aborted", res.NumAborted)
		if *satProve {
			man.SetResult("proved_redundant", res.NumProvedRedundant)
			man.SetResult("settled_aborts", settle.Aborted)
			man.SetResult("settle_cubes", settle.CubesAdded)
			man.SetResult("sat_conflicts", settle.Conflicts)
		}
		man.SetResult("coverage", res.Coverage)
		man.SetResult("effective_coverage", res.EffectiveCoverage)
		man.SetResult("patterns", res.PatternCount())
		man.SetResult("cubes", len(res.Cubes))
		man.SetResult("incomplete", res.Incomplete)
	}
	if err != nil {
		// A cancelled or failed run still reports the partial pattern set
		// it flushed; the exit code tells the caller why it stopped.
		if res != nil && !s.JSON {
			fmt.Fprintf(stdout, "patterns (partial):  %d\n", res.PatternCount())
			fmt.Fprintf(stdout, "coverage (partial):  %.2f%%\n", res.Coverage*100)
		}
		return s.Fail(cli.ExitCode(err, interrupted()), err)
	}
	if !s.JSON {
		fmt.Fprintf(stdout, "faults (collapsed):  %d\n", res.NumFaults)
		fmt.Fprintf(stdout, "detected:            %d\n", res.NumDetected)
		fmt.Fprintf(stdout, "redundant (proven):  %d\n", res.NumRedundant)
		fmt.Fprintf(stdout, "aborted:             %d\n", res.NumAborted)
		if *satProve {
			fmt.Fprintf(stdout, "proved redundant:    %d (SAT; settled %d aborts, %d new cubes, %d conflicts)\n",
				res.NumProvedRedundant, settle.Aborted, settle.CubesAdded, settle.Conflicts)
		}
		fmt.Fprintf(stdout, "coverage:            %.2f%% (effective %.2f%%)\n", res.Coverage*100, res.EffectiveCoverage*100)
		fmt.Fprintf(stdout, "patterns:            %d (from %d generated cubes)\n", res.PatternCount(), len(res.Cubes))

		if *verbose {
			for _, o := range res.Outcomes {
				if o.Status != atpg.Detected {
					fmt.Fprintf(stdout, "  %-9s %s\n", o.Status, o.Fault.String(c))
				}
			}
		}
	}
	return s.Finish()
}
