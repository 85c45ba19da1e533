// Package cli holds the shared command-line conventions of the repro
// tools: a uniform "prog: message" stderr format with fixed exit codes
// (2 for usage errors, 1 for runtime failures, 3 for runs stopped by a
// deadline, 130 for SIGINT), the shared resilience flag set (-timeout,
// -checkpoint, -checkpoint-every, -resume) of every experiment-running
// command, and the Session every command runs in. The run deadline is
// the only wall-clock bound; searches are bounded by deterministic
// limits, so results never depend on the host.
package cli

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
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

// Errorf prints "prog: message" to stderr without exiting, for commands
// structured as run() functions that must flush traces and manifests on
// every exit path before returning their code.
func Errorf(prog, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "%s: %s\n", prog, fmt.Sprintf(format, args...))
}

// Exitf prints "prog: message" to w and returns code, for a command
// that runs without a Session.
func Exitf(w io.Writer, prog string, code int, format string, args ...any) int {
	fmt.Fprintf(w, "%s: %s\n", prog, fmt.Sprintf(format, args...))
	return code
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

// NewFlagSet returns a flag set for prog that reports to stderr and
// leaves the exit to its caller.
func NewFlagSet(prog string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(prog, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// Parse parses args into fs and reports whether the command goes on. When
// it does not, code is the exit code: 0 after -help, ExitUsage after a bad
// flag (the flag package has already said why).
func Parse(fs *flag.FlagSet, args []string) (code int, ok bool) {
	switch err := fs.Parse(args); {
	case err == nil:
		return 0, true
	case errors.Is(err, flag.ErrHelp):
		return 0, false
	default:
		return ExitUsage, false
	}
}

// RunFlags is the shared resilience flag set (-timeout, -checkpoint,
// -checkpoint-every, -resume); Session.RunFlags registers it.
type RunFlags struct {
	Timeout         time.Duration
	CheckpointPath  string
	CheckpointEvery int
	Resume          bool
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

// Session is one run of a command. NewSession registers the shared
// observability flags (-trace, -trace-text, -metrics, -cpuprofile); the
// command adds its own, calls Parse and Start, and leaves through Finish
// or Fail, which flush the trace and write the manifest on every path.
// A session never exits the process: it hands back exit codes.
type Session struct {
	Flags        *flag.FlagSet
	JSON         bool          // -json (JSONFlag): the manifest goes to stdout
	ManifestPath string        // also write the manifest here (atomic)
	Instrument   bool          // build the registry even when no flag asks
	Man          *obs.Manifest // the run manifest, created by Start

	prog                  string
	stdout, stderr        io.Writer
	run                   *RunFlags // the resilience flags (RunFlags), or nil
	tracePath, cpuProfile string
	traceText, metrics    bool

	reg       *obs.Registry
	col       *obs.Collector
	sink      obs.Sink
	traceFile *os.File
	profile   *os.File
}

// NewSession starts a run of command prog.
func NewSession(prog string, stdout, stderr io.Writer) *Session {
	s := &Session{Flags: NewFlagSet(prog, stderr), prog: prog, stdout: stdout, stderr: stderr}
	s.Flags.StringVar(&s.tracePath, "trace", "", "write a structured JSONL event trace to `file` (- for stderr)")
	s.Flags.BoolVar(&s.traceText, "trace-text", false, "with -trace, write human-readable text instead of JSONL")
	s.Flags.BoolVar(&s.metrics, "metrics", false, "print end-of-run counters/timers/histograms to stderr")
	s.Flags.StringVar(&s.cpuProfile, "cpuprofile", "", "write a CPU profile to `file`")
	return s
}

// JSONFlag registers -json with the command's own usage text.
func (s *Session) JSONFlag(usage string) { s.Flags.BoolVar(&s.JSON, "json", false, usage) }

// RunFlags registers the resilience flags; Parse validates them and
// Start records them on the manifest.
func (s *Session) RunFlags() *RunFlags {
	r := &RunFlags{}
	s.Flags.DurationVar(&r.Timeout, "timeout", 0, "wall-clock budget for the whole run (e.g. 90s; 0 = none); an exceeded budget stops the run with exit code 3 after flushing partial state")
	s.Flags.StringVar(&r.CheckpointPath, "checkpoint", "", "periodically save generation state to `file` (atomic replace); interrupted runs keep the last complete checkpoint")
	s.Flags.IntVar(&r.CheckpointEvery, "checkpoint-every", 0, "targeted faults between checkpoint writes (default 64)")
	s.Flags.BoolVar(&r.Resume, "resume", false, "with -checkpoint, continue from the checkpoint file when present (bit-for-bit identical results)")
	s.run = r
	return r
}

// Parse parses args and checks the resilience flags: a negative
// -checkpoint-every, or -resume without -checkpoint, is a usage error.
// When the command must stop, it returns the exit code and false.
func (s *Session) Parse(args []string) (code int, ok bool) {
	if code, ok := Parse(s.Flags, args); !ok {
		return code, false
	}
	switch r := s.run; {
	case r != nil && r.CheckpointEvery < 0:
		return s.Usagef("-checkpoint-every must be >= 0, got %d", r.CheckpointEvery), false
	case r != nil && r.Resume && r.CheckpointPath == "":
		return s.Usagef("-resume requires -checkpoint"), false
	}
	return 0, true
}

// Errorf prints "prog: message" to the session's stderr.
func (s *Session) Errorf(format string, args ...any) {
	fmt.Fprintf(s.stderr, "%s: %s\n", s.prog, fmt.Sprintf(format, args...))
}

// Usagef prints "prog: message" and returns ExitUsage.
func (s *Session) Usagef(format string, args ...any) int {
	return Exitf(s.stderr, s.prog, ExitUsage, format, args...)
}

// Start creates the manifest, opens the CPU profile and trace sink the
// flags ask for, and builds the metrics registry when anything reads it:
// an observability flag, -json (the manifest embeds a snapshot) or
// Instrument. A failure is printed and returned as ExitRuntime with
// nothing left open; 0 means the run goes on.
func (s *Session) Start(seed int64) int {
	s.Man = obs.NewManifest(s.prog, seed)
	if r := s.run; r != nil && r.Timeout > 0 {
		s.Man.SetOption("timeout", r.Timeout.String())
	}
	if r := s.run; r != nil && r.CheckpointPath != "" {
		s.Man.SetOption("checkpoint", r.CheckpointPath)
		s.Man.SetOption("resume", r.Resume)
	}
	fail := func(err error) int {
		s.Errorf("%v", err)
		s.close()
		return ExitRuntime
	}
	if s.cpuProfile != "" {
		//lintgo:allow GO004 pprof streams into the handle for the whole run; write-rename cannot wrap a live sink
		f, err := os.Create(s.cpuProfile)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail(err)
		}
		s.profile = f
	}
	if s.tracePath != "" {
		w := s.stderr
		if s.tracePath != "-" {
			//lintgo:allow GO004 the trace sink streams events as they happen; a torn trace from a crash is itself evidence
			f, err := os.Create(s.tracePath)
			if err != nil {
				return fail(err)
			}
			s.traceFile, w = f, f
		}
		s.sink = obs.NewJSONLSink(w)
		if s.traceText {
			s.sink = obs.NewTextSink(w)
		}
	}
	if s.tracePath != "" || s.metrics || s.cpuProfile != "" || s.JSON || s.Instrument {
		s.reg = obs.NewRegistry()
		s.col = obs.New(s.reg, s.sink)
	}
	return 0
}

// close stops the CPU profile and closes the trace, reporting every
// failure, a poisoned sink included.
func (s *Session) close() error {
	var errs []error
	if s.profile != nil {
		pprof.StopCPUProfile()
		errs = append(errs, s.profile.Close())
	}
	if s.sink != nil {
		errs = append(errs, s.sink.Err())
	}
	if s.traceFile != nil {
		errs = append(errs, s.traceFile.Close())
	}
	s.profile, s.sink, s.traceFile = nil, nil, nil
	return errors.Join(errs...)
}

// Col is the run's collector: nil when nothing reads metrics, so
// instrumented libraries stay on their zero-cost path by default.
func (s *Session) Col() *obs.Collector { return s.col }

// Finish seals the manifest, emits it as the final trace event, shuts the
// observability stack down, prints the metrics with -metrics, and writes
// the manifest to stdout (-json) and to ManifestPath. It returns 0, or
// ExitRuntime when any of that fails.
func (s *Session) Finish() int {
	s.Man.Finish(s.reg)
	s.Man.EmitTo(s.col)
	err := s.close()
	if s.metrics {
		fmt.Fprint(s.stderr, s.reg.Snapshot().String())
	}
	if s.JSON {
		err = errors.Join(err, s.Man.WriteJSON(s.stdout))
	}
	if s.ManifestPath != "" {
		var buf bytes.Buffer
		werr := s.Man.WriteJSON(&buf)
		if werr == nil {
			werr = runctl.WriteFileAtomic(s.ManifestPath, buf.Bytes())
		}
		err = errors.Join(err, werr)
	}
	if err != nil {
		s.Errorf("%v", err)
		return ExitRuntime
	}
	return 0
}

// Fail prints err, records it on the manifest and finishes the run. It
// returns code, or ExitRuntime when finishing fails.
func (s *Session) Fail(code int, err error) int {
	s.Errorf("%v", err)
	s.Man.SetResult("error", err.Error())
	if c := s.Finish(); c != 0 {
		return c
	}
	return code
}
