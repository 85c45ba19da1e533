// Package cli holds the shared command-line conventions of the repro
// tools: a uniform "prog: message" stderr format with fixed exit codes
// (2 for usage errors, 1 for runtime failures, 3 for runs stopped by a
// deadline, 130 for SIGINT), the common observability flag set (-trace,
// -metrics, -cpuprofile), and the shared resilience flag set (-timeout,
// -checkpoint, -checkpoint-every, -resume) of every experiment-running
// command. The run deadline is the only wall-clock bound; searches are
// bounded by deterministic limits, so results never depend on the host.
package cli

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"time"

	"repro/internal/atpg"
	"repro/internal/obs"
	"repro/internal/runctl"
)

// Exit codes shared by every command.
const (
	ExitRuntime     = 1   // runtime failure (I/O, parse, experiment error)
	ExitUsage       = 2   // bad flags or arguments
	ExitIncomplete  = 3   // run stopped by -timeout/cancellation; partial state flushed
	ExitInterrupted = 130 // run stopped by SIGINT/SIGTERM (128+SIGINT), state flushed
)

// Fatalf prints "prog: message" to stderr and exits with ExitRuntime.
func Fatalf(prog, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "%s: %s\n", prog, fmt.Sprintf(format, args...))
	os.Exit(ExitRuntime)
}

// Usagef prints "prog: message" to stderr and exits with ExitUsage.
func Usagef(prog, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "%s: %s\n", prog, fmt.Sprintf(format, args...))
	os.Exit(ExitUsage)
}

// Check calls Fatalf when err is non-nil.
func Check(prog string, err error) {
	if err != nil {
		Fatalf(prog, "%v", err)
	}
}

// Errorf prints "prog: message" to stderr without exiting, for commands
// structured as run() functions that must flush traces and manifests on
// every exit path before returning their code.
func Errorf(prog, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "%s: %s\n", prog, fmt.Sprintf(format, args...))
}

// ExitCode maps a pipeline error to the command's exit code: 0 for nil,
// ExitInterrupted when a signal cancelled the run, ExitIncomplete for a
// deadline/cancellation, ExitRuntime otherwise.
func ExitCode(err error, interrupted bool) int {
	switch {
	case err == nil:
		return 0
	case interrupted:
		return ExitInterrupted
	case runctl.IsCancel(err):
		return ExitIncomplete
	default:
		return ExitRuntime
	}
}

// RunFlags is the shared resilience flag set: run deadline, checkpoint
// location and cadence, and resume.
type RunFlags struct {
	Timeout         time.Duration
	CheckpointPath  string
	CheckpointEvery int
	Resume          bool
}

// Register installs -timeout, -checkpoint, -checkpoint-every and -resume
// on fs.
func (r *RunFlags) Register(fs *flag.FlagSet) {
	fs.DurationVar(&r.Timeout, "timeout", 0, "wall-clock budget for the whole run (e.g. 90s; 0 = none); an exceeded budget stops the run with exit code 3 after flushing partial state")
	fs.StringVar(&r.CheckpointPath, "checkpoint", "", "periodically save generation state to `file` (atomic replace); interrupted runs keep the last complete checkpoint")
	fs.IntVar(&r.CheckpointEvery, "checkpoint-every", 0, "targeted faults between checkpoint writes (default 64)")
	fs.BoolVar(&r.Resume, "resume", false, "with -checkpoint, continue from the checkpoint file when present (bit-for-bit identical results)")
}

// Validate reports flag errors: a negative -checkpoint-every, or -resume
// without -checkpoint.
func (r *RunFlags) Validate() error {
	if r.CheckpointEvery < 0 {
		return fmt.Errorf("-checkpoint-every must be >= 0, got %d", r.CheckpointEvery)
	}
	if r.Resume && r.CheckpointPath == "" {
		return fmt.Errorf("-resume requires -checkpoint")
	}
	return nil
}

// Checkpoint returns the checkpoint configuration implied by the flags,
// or nil when -checkpoint was not given.
func (r *RunFlags) Checkpoint() *atpg.CheckpointConfig {
	if r.CheckpointPath == "" {
		return nil
	}
	return &atpg.CheckpointConfig{Path: r.CheckpointPath, Every: r.CheckpointEvery, Resume: r.Resume}
}

// Context derives the run context from the flags: cancelled on SIGINT or
// SIGTERM (first signal only — a second one kills the process), and bounded
// by -timeout when set. interrupted reports whether a signal arrived (it
// decides ExitInterrupted vs ExitIncomplete); stop releases the handler.
func (r *RunFlags) Context(parent context.Context) (ctx context.Context, interrupted func() bool, stop func()) {
	ctx, interrupted, sigStop := runctl.SignalContext(parent)
	if r.Timeout <= 0 {
		return ctx, interrupted, sigStop
	}
	ctx, cancel := context.WithTimeout(ctx, r.Timeout)
	return ctx, interrupted, func() {
		cancel()
		sigStop()
	}
}

// Obs is the shared observability flag set. Register it on the command's
// FlagSet, call Start after flag parsing, and defer Stop; Collector
// returns nil when no observability flag was given, so instrumented
// libraries stay on their zero-cost path by default.
type Obs struct {
	TracePath  string
	TraceText  bool
	Metrics    bool
	CPUProfile string

	prog      string
	col       *obs.Collector
	reg       *obs.Registry
	sink      obs.Sink
	traceFile *os.File
	profile   *os.File
}

// Register installs -trace, -trace-text, -metrics and -cpuprofile on fs.
func (o *Obs) Register(fs *flag.FlagSet) {
	fs.StringVar(&o.TracePath, "trace", "", "write a structured JSONL event trace to `file` (- for stderr)")
	fs.BoolVar(&o.TraceText, "trace-text", false, "with -trace, write human-readable text instead of JSONL")
	fs.BoolVar(&o.Metrics, "metrics", false, "print end-of-run counters/timers/histograms to stderr")
	fs.StringVar(&o.CPUProfile, "cpuprofile", "", "write a CPU profile to `file`")
}

// Enabled reports whether any observability flag was given.
func (o *Obs) Enabled() bool {
	return o.TracePath != "" || o.Metrics || o.CPUProfile != ""
}

// Start opens the trace sink and CPU profile as requested and returns the
// collector (nil when nothing was requested). Errors are fatal in the
// uniform CLI style.
func (o *Obs) Start(prog string) *obs.Collector {
	o.prog = prog
	if o.CPUProfile != "" {
		//lintgo:allow GO004 pprof streams into the handle for the whole run; write-rename cannot wrap a live sink
		f, err := os.Create(o.CPUProfile)
		Check(prog, err)
		Check(prog, pprof.StartCPUProfile(f))
		o.profile = f
	}
	if o.TracePath != "" {
		w := os.Stderr
		if o.TracePath != "-" {
			//lintgo:allow GO004 the trace sink streams events as they happen; a torn trace from a crash is itself evidence
			f, err := os.Create(o.TracePath)
			Check(prog, err)
			o.traceFile = f
			w = f
		}
		if o.TraceText {
			o.sink = obs.NewTextSink(w)
		} else {
			o.sink = obs.NewJSONLSink(w)
		}
	}
	if o.Enabled() {
		o.reg = obs.NewRegistry()
		o.col = obs.New(o.reg, o.sink)
	}
	return o.col
}

// Collector returns the collector built by Start (nil when disabled).
func (o *Obs) Collector() *obs.Collector { return o.col }

// Registry returns the metrics registry built by Start (nil when
// disabled). Useful for building a manifest.
func (o *Obs) Registry() *obs.Registry { return o.reg }

// Stop finalizes everything Start opened: emits the manifest as the final
// trace event when one is given, stops the CPU profile, closes the trace
// file (failing loudly on a poisoned sink) and prints the metrics dump
// when -metrics was set.
func (o *Obs) Stop(manifest *obs.Manifest) {
	if manifest != nil {
		manifest.EmitTo(o.col)
	}
	if o.profile != nil {
		pprof.StopCPUProfile()
		Check(o.prog, o.profile.Close())
		o.profile = nil
	}
	if o.sink != nil {
		Check(o.prog, o.sink.Err())
		o.sink = nil
	}
	if o.traceFile != nil {
		Check(o.prog, o.traceFile.Close())
		o.traceFile = nil
	}
	if o.Metrics && o.reg != nil {
		fmt.Fprint(os.Stderr, o.reg.Snapshot().String())
	}
}
