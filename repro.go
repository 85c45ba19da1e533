// Package repro is a from-scratch Go reproduction of
//
//	Ozgur Sinanoglu and Erik Jan Marinissen,
//	"Analysis of the Test Data Volume Reduction Benefit of Modular SOC
//	Testing", DATE 2008, DOI 10.1109/DATE.2008.4484683.
//
// It provides, as a single importable surface, the pieces a test-data-volume
// study needs:
//
//   - gate-level netlists with ISCAS'89 .bench I/O (Circuit, ParseBench),
//   - a PODEM-based stuck-at ATPG with fault simulation and static
//     compaction (RunATPG),
//   - logic-cone analysis, the unit of the paper's conceptual argument
//     (AnalyzeCones, ConeExample),
//   - IEEE 1500-style wrapper isolation and wrapper chain design (Isolate,
//     ISOCost, DesignWrapperChains),
//   - hierarchical SOC test-parameter models and the paper's TDV
//     Equations 1-8 (SOC, Module, and their methods),
//   - the paper's experiments: SOC1/SOC2 (Tables 1-2), the ITC'02
//     benchmarks (Tables 3-4) and the worked cone example (Figures 1-2),
//     in both published-profile and live-ATPG modes.
//
// The RenderTable*/RenderFigure* functions regenerate the paper's tables
// and figures; the Live* functions run the full pipeline (generate cores,
// per-core ATPG, flatten, monolithic ATPG, compare) on synthetic stand-in
// circuits. See DESIGN.md for the substitution policy and EXPERIMENTS.md
// for paper-vs-measured results.
package repro

import (
	"context"
	"io"

	"repro/internal/atpg"
	"repro/internal/cones"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/runctl"
	"repro/internal/soc"
	"repro/internal/tam"
	"repro/internal/wrapper"
)

// Circuit is a gate-level netlist (see internal/netlist for the full API).
type Circuit = netlist.Circuit

// ParseBench reads an ISCAS'89 .bench netlist.
func ParseBench(name string, r io.Reader) (*Circuit, error) {
	return netlist.ParseBench(name, r)
}

// ParseBenchString parses an in-memory .bench netlist.
func ParseBenchString(name, src string) (*Circuit, error) {
	return netlist.ParseBenchString(name, src)
}

// WriteBench serializes a circuit in .bench format.
func WriteBench(w io.Writer, c *Circuit) error { return netlist.WriteBench(w, c) }

// ATPGOptions configures test generation; see DefaultATPGOptions.
type ATPGOptions = atpg.Options

// ATPGResult is the outcome of a test generation run.
type ATPGResult = atpg.Result

// DefaultATPGOptions returns the settings used by the paper-reproduction
// experiments (backtrack limit 100, 64 random bootstrap patterns, static
// compaction, seed 1).
func DefaultATPGOptions() ATPGOptions { return atpg.DefaultOptions() }

// RunATPG generates a compacted stuck-at test set for the collapsed fault
// universe of c.
func RunATPG(c *Circuit, opts ATPGOptions) *ATPGResult {
	return atpg.Generate(c, opts)
}

// RunATPGContext is RunATPG with cancellation, deadlines, checkpoint/resume
// (ATPGOptions.Checkpoint) and typed-error reporting: a cancelled run
// returns a consistent partial result marked Incomplete, and internal
// panics surface as *PanicError instead of crashing the process.
func RunATPGContext(ctx context.Context, c *Circuit, opts ATPGOptions) (*ATPGResult, error) {
	return atpg.GenerateContext(ctx, c, opts)
}

// Resilience layer (see internal/runctl and internal/atpg): checkpointed,
// cancellable, failure-tolerant runs.
type (
	// CheckpointConfig enables periodic checkpointing of an ATPG run via
	// ATPGOptions.Checkpoint (or per-stage via LiveOptions.Checkpoint).
	CheckpointConfig = atpg.CheckpointConfig
	// PanicError is a panic recovered at a pipeline boundary, carrying the
	// operation, circuit and fault context plus the original stack.
	PanicError = runctl.PanicError
	// CheckpointError reports a failed checkpoint write, read or
	// validation, carrying the file path and operation.
	CheckpointError = runctl.CheckpointError
)

// IsCancel reports whether err stems from context cancellation or a
// deadline — the "stopped on purpose" class callers usually treat
// differently from real failures.
func IsCancel(err error) bool { return runctl.IsCancel(err) }

// Observability (see internal/obs): a Collector threaded through
// ATPGOptions.Obs or LiveOptions.Obs gathers counters, phase timings,
// histograms and a structured event trace from the whole pipeline; a
// RunManifest is the diffable end-of-run record the CLIs print with -json.
type (
	Collector       = obs.Collector
	MetricsRegistry = obs.Registry
	TraceSink       = obs.Sink
	RunManifest     = obs.Manifest
)

// NewObservability builds a collector over a fresh metrics registry. When
// w is non-nil, structured events are written to it as JSONL; with a nil w
// the collector gathers metrics only. The registry is returned for
// end-of-run snapshots and manifests.
func NewObservability(w io.Writer) (*Collector, *MetricsRegistry) {
	reg := obs.NewRegistry()
	var sink obs.Sink
	if w != nil {
		sink = obs.NewJSONLSink(w)
	}
	return obs.New(reg, sink), reg
}

// FaultUniverseSize returns the number of collapsed stuck-at faults of c.
func FaultUniverseSize(c *Circuit) int {
	return len(faults.CollapsedUniverse(c))
}

// ConeAnalysis is the per-cone decomposition of a circuit.
type ConeAnalysis = cones.Analysis

// AnalyzeCones extracts every logic cone of c and runs isolated per-cone
// ATPG on each — the paper's Section 3 decomposition.
func AnalyzeCones(c *Circuit, opts ATPGOptions) (*ConeAnalysis, error) {
	return cones.Analyze(c, opts)
}

// AnalyzeConesContext is AnalyzeCones with cancellation at per-cone (and,
// inside each cone's ATPG, per-fault) granularity.
func AnalyzeConesContext(ctx context.Context, c *Circuit, opts ATPGOptions) (*ConeAnalysis, error) {
	return cones.AnalyzeContext(ctx, c, opts)
}

// ConeModel is the analytic cone model of the paper's Figures 1-2.
type ConeModel = cones.Model

// ConeExample returns the paper's worked example: cones A/B/C with
// 20/10/20 flip-flops and 200/300/400 partial patterns.
func ConeExample() ConeModel { return cones.PaperExample() }

// Isolate wraps a core netlist with dedicated IEEE 1500-style wrapper
// cells (modelled as scan cells) on every terminal.
func Isolate(c *Circuit) (*wrapper.IsolationResult, error) { return wrapper.Isolate(c) }

// WrapperSpec describes a wrapper by terminal counts.
type WrapperSpec = wrapper.Spec

// ISOCost computes the paper's Equation 5 for a parent core and its direct
// children.
func ISOCost(parent WrapperSpec, children []WrapperSpec) int {
	return wrapper.ISOCost(parent, children)
}

// CoreTest describes a wrapped core's test resources for wrapper design.
type CoreTest = tam.CoreTest

// WrapperChains is a wrapper chain configuration.
type WrapperChains = tam.WrapperChains

// DesignWrapperChains partitions a core's scan chains and wrapper cells
// over w wrapper chains, minimizing the scan depth (IEEE 1500-style
// wrapper design).
func DesignWrapperChains(c CoreTest, w int) (WrapperChains, error) {
	return tam.DesignWrapper(c, w)
}

// CoreTestTime returns the scan test time of a core under a wrapper
// configuration: (1 + max(si, so))·T + min(si, so).
func CoreTestTime(c CoreTest, wc WrapperChains) int64 { return tam.TestTime(c, wc) }

// Module is one SOC module (core or top level) with its test parameters;
// SOC is a complete chip profile. Their methods implement Equations 1-8.
type (
	Module = core.Module
	SOC    = core.SOC
	Params = core.Params
	Report = core.Report
)

// SOC1 returns the paper's SOC1 profile (Figure 4, Table 1) with the
// published per-core parameters and the measured T_mono = 216.
func SOC1() *SOC { return soc.SOC1Profile().Profile() }

// SOC2 returns the paper's SOC2 profile (Figure 5, Table 2), T_mono = 945.
func SOC2() *SOC { return soc.SOC2Profile().Profile() }
