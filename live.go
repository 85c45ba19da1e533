package repro

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/atpg"
	"repro/internal/bench89"
	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/soc"
)

// LiveOptions configures the live end-to-end experiments, which rebuild
// the paper's SOC1/SOC2 study with real ATPG runs instead of published
// pattern counts: generate the stand-in cores, run per-core ATPG, flatten
// the SOC with isolation ripped out, run monolithic ATPG, and compare.
type LiveOptions struct {
	// ATPG are the test generation settings (DefaultATPGOptions if zero).
	ATPG ATPGOptions
	// GateScale scales the stand-in circuits' gate counts in (0, 1];
	// 1.0 reproduces the full stand-ins, smaller values speed up the
	// experiment at the cost of structural fidelity. Zero means 1.0.
	GateScale float64
	// Seed drives the deterministic pseudo-random inter-core wiring.
	Seed int64
	// InterconnectFraction is the fraction of core inputs wired to other
	// cores' outputs in the flattened design (default 0.45).
	InterconnectFraction float64
	// Obs receives the experiment's instrumentation when non-nil: phase
	// spans (generate, per-core ATPG, flatten, monolithic ATPG), per-core
	// result events carrying the TDV inputs, and everything the ATPG and
	// fault-sim layers emit underneath. It is also propagated into the
	// ATPG options unless those already carry their own collector.
	Obs *obs.Collector
	// Checkpoint enables per-stage checkpoint/resume for the experiment's
	// ATPG runs. Its Path is a prefix: the stage for core i writes
	// Path+".core<i>", the monolithic stage writes Path+".mono", so an
	// interrupted experiment resumes each completed stage from its own
	// file. Every/Resume apply to each stage unchanged.
	Checkpoint *atpg.CheckpointConfig
	// Workers bounds how many jobs run concurrently: core generations,
	// then the per-core ATPG runs beside one job that flattens the SOC and
	// runs monolithic ATPG on it. That job is dispatched first and the
	// cores follow, largest first. Workers is forwarded to the ATPG stages
	// (unless ATPG.Workers is already set) so their fault simulation
	// shards too. 0 (the default) resolves to runtime.NumCPU(); 1 runs
	// one job at a time. Results and metrics are identical for every
	// setting: jobs are independent and merge back in core order, mono
	// last. A run whose lowest failing core is k returns the serial run's
	// first k-1 cores and core k's error; mono's error is returned only
	// when every core succeeded.
	Workers int
}

func (o LiveOptions) withDefaults() LiveOptions {
	if o.ATPG == (ATPGOptions{}) {
		o.ATPG = DefaultATPGOptions()
	}
	if o.ATPG.Obs == nil {
		o.ATPG.Obs = o.Obs
	}
	if o.ATPG.Workers == 0 {
		o.ATPG.Workers = o.Workers
	}
	if o.GateScale <= 0 || o.GateScale > 1 {
		o.GateScale = 1
	}
	if o.InterconnectFraction == 0 {
		o.InterconnectFraction = 0.45
	}
	return o
}

// LiveCore is the measured profile of one core in a live experiment.
type LiveCore struct {
	Name      string
	Inputs    int
	Outputs   int
	ScanCells int
	Patterns  int
	Coverage  float64
}

// LiveResult is the outcome of a live SOC experiment.
type LiveResult struct {
	Name  string
	Cores []LiveCore
	// Workers is the resolved per-core concurrency bound the run used.
	Workers int
	// TMono is the measured monolithic pattern count on the flattened SOC.
	TMono        int
	MonoCoverage float64
	// MaxCoreT is max_i T_i; Equation 2 asserts TMono >= MaxCoreT.
	MaxCoreT int
	// SOC is the TDV model built from the measured values; its Analyze
	// report carries the monolithic/modular comparison.
	SOC    *SOC
	Report Report
}

// Eq2Holds reports whether the measured monolithic pattern count is at
// least the maximum per-core count — the paper's Equation 2.
func (r *LiveResult) Eq2Holds() bool { return r.TMono >= r.MaxCoreT }

// LiveSOC1 runs the live SOC1 experiment (paper Section 5.1, Table 1):
// s713, s953 and three s1423 instances.
func LiveSOC1(opts LiveOptions) (*LiveResult, error) {
	return LiveSOC1Context(context.Background(), opts)
}

// LiveSOC1Context is LiveSOC1 with cancellation: the per-core and
// monolithic ATPG stages honour ctx at per-fault granularity, and with
// LiveOptions.Checkpoint set each stage checkpoints and resumes from its
// own derived file.
func LiveSOC1Context(ctx context.Context, opts LiveOptions) (*LiveResult, error) {
	return liveSOC(ctx, "SOC1", []string{"s713", "s953", "s1423", "s1423", "s1423"}, opts)
}

// LiveSOC2 runs the live SOC2 experiment (paper Section 5.1, Table 2):
// s953, s5378, s13207 and s15850. At GateScale 1 this is the most
// expensive experiment in the repository (a ~7000-gate monolithic ATPG
// run); pass a smaller GateScale for quick runs.
func LiveSOC2(opts LiveOptions) (*LiveResult, error) {
	return LiveSOC2Context(context.Background(), opts)
}

// LiveSOC2Context is LiveSOC2 with cancellation and per-stage
// checkpoint/resume; see LiveSOC1Context.
func LiveSOC2Context(ctx context.Context, opts LiveOptions) (*LiveResult, error) {
	return liveSOC(ctx, "SOC2", []string{"s953", "s5378", "s13207", "s15850"}, opts)
}

func liveSOC(ctx context.Context, name string, coreNames []string, opts LiveOptions) (*LiveResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opts = opts.withDefaults()
	// stageOpts derives the ATPG options for one named pipeline stage; with
	// experiment-level checkpointing each stage gets its own file so the
	// options-hash validation can bind a checkpoint to its exact stage.
	stageOpts := func(stage string) atpg.Options {
		o := opts.ATPG
		if opts.Checkpoint != nil {
			cc := *opts.Checkpoint
			cc.Path = opts.Checkpoint.Path + "." + stage
			o.Checkpoint = &cc
		}
		return o
	}
	col := opts.Obs
	spanAll := col.StartSpan("live.experiment")
	if col.Tracing() {
		col.Emit("live.start",
			obs.F("soc", name),
			obs.F("cores", len(coreNames)),
			obs.F("gate_scale", opts.GateScale),
			obs.F("seed", opts.Seed),
			obs.F("workers", par.Workers(opts.Workers)))
	}
	res := &LiveResult{Name: name}

	// The cores are generated on the pool, each instrumenting a fork;
	// the forks merge in core order, and the first error in core order
	// wins, as in a serial loop.
	workers := par.Workers(opts.Workers)
	spanGen := col.StartSpan("live.generate")
	circuits := make([]*netlist.Circuit, len(coreNames))
	genRegs := make([]*obs.Registry, len(coreNames))
	_, err := par.ForEach(nil, len(coreNames), workers, func(i int) error {
		prof, ok := bench89.ProfileByName(coreNames[i])
		if !ok {
			return fmt.Errorf("repro: unknown core %q", coreNames[i])
		}
		// Distinct instances of the same core get distinct structures,
		// like distinct placements of the same RTL would.
		prof.Seed += int64(i) * 1013
		prof.Gates = int(float64(prof.Gates) * opts.GateScale)
		if min := prof.Outputs + 8; prof.Gates < min {
			prof.Gates = min
		}
		genCol, reg := col.Fork()
		genRegs[i] = reg
		var err error
		circuits[i], err = bench89.GenerateObserved(prof, genCol)
		return err
	})
	for _, reg := range genRegs {
		col.Metrics().Merge(reg)
	}
	if err != nil {
		return nil, err
	}
	spanGen.End()

	// Per-core ATPG, each core tested as a wrapped, stand-alone unit, and
	// the monolithic run share one pool of up to Workers jobs. Job n
	// flattens the SOC with isolation ripped out, reading the same
	// finalized circuits the cores read and nothing writes, then runs
	// monolithic ATPG on the flat circuit. Being the longest, it is
	// dispatched first, and the cores follow longest first by gate count
	// (Graham's LPT rule).
	// Each job writes its result into an index-addressed slot and
	// instruments a forked collector; the forks merge back into the parent
	// registry serially, cores in order and then the monolithic job, so
	// manifests are deterministic. Each per-core event carries the exact
	// TDV-formula inputs (terminal and scan-cell counts plus the measured
	// pattern count).
	//
	// Failures end as the serial pipeline ends. A failed core cancels the
	// monolithic job and skips the cores above it, while those below it
	// still run; the lowest failed core's error wins, and its prefix is
	// kept. Only with every core done does the monolithic job's error
	// count.
	spanCores := col.StartSpan("live.percore")
	res.Workers = workers
	col.Gauge("live.workers").Set(int64(workers))
	n := len(circuits)
	order := make([]int, 0, n+1)
	for i := range n {
		order = append(order, i)
	}
	slices.SortStableFunc(order, func(a, b int) int { return circuits[b].NumGates() - circuits[a].NumGates() })
	order = slices.Insert(order, 0, n)
	type jobOut struct {
		lc  LiveCore
		reg *obs.Registry
		err error
	}
	outs := make([]jobOut, n+1)
	monoCtx, cancelMono := context.WithCancel(ctx)
	defer cancelMono()
	var failed atomic.Int64 // the lowest failed core, n while none has
	failed.Store(int64(n))
	var flat *netlist.Circuit
	var mono *atpg.Result
	job := func(i int) {
		if int64(i) > failed.Load() {
			return
		}
		jobCol, jobReg := col.Fork()
		outs[i].reg = jobReg
		if i == n {
			spanFlat := jobCol.StartSpan("live.flatten")
			f, err := soc.Flatten(name+"-flat", circuits, soc.FlattenOptions{
				Seed:                 opts.Seed,
				InterconnectFraction: opts.InterconnectFraction,
			})
			spanFlat.End()
			if err != nil {
				outs[n].err = err
				return
			}
			flat = f
			spanMono := jobCol.StartSpan("live.mono")
			so := stageOpts("mono")
			so.Obs = jobCol
			mono, err = atpg.GenerateContext(monoCtx, flat, so)
			spanMono.End()
			if err != nil {
				outs[n].err = fmt.Errorf("repro: live %s monolithic ATPG: %w", name, err)
			}
			return
		}
		err := ctx.Err() // the serial pipeline checks before each core
		if err == nil {
			outs[i].lc, err = liveCore(ctx, jobCol, name, i, coreNames[i], circuits[i], stageOpts(fmt.Sprintf("core%d", i+1)))
		}
		if err != nil {
			outs[i].err = err
			for cur := failed.Load(); int64(i) < cur; cur = failed.Load() {
				if failed.CompareAndSwap(cur, int64(i)) {
					break
				}
			}
			cancelMono()
		}
	}
	_, _ = par.ForEach(nil, n+1, workers, func(k int) error {
		job(order[k])
		return nil
	})
	spanCores.End()
	// Fold the registries into the parent: the cores the serial pipeline
	// would have run, in core order, then the monolithic job.
	f := int(failed.Load())
	for i := range outs[:min(f+1, n)] {
		col.Metrics().Merge(outs[i].reg)
	}
	addCores := func(k int) {
		for _, o := range outs[:k] {
			res.Cores = append(res.Cores, o.lc)
			res.MaxCoreT = max(res.MaxCoreT, o.lc.Patterns)
		}
	}
	if f < n {
		addCores(f)
		spanAll.End()
		return res, outs[f].err
	}
	col.Metrics().Merge(outs[n].reg)
	if flat == nil {
		return nil, outs[n].err
	}
	addCores(n)
	if outs[n].err != nil {
		spanAll.End()
		return res, outs[n].err
	}
	res.TMono = mono.PatternCount()
	res.MonoCoverage = mono.Coverage
	if col.Tracing() {
		col.Emit("live.mono.result",
			obs.F("soc", name),
			obs.F("patterns", res.TMono),
			obs.F("coverage", res.MonoCoverage),
			obs.F("max_core_t", res.MaxCoreT))
	}

	// Build the TDV model from the measured values.
	fs := flat.ComputeStats()
	top := &core.Module{
		Name:                  "Top",
		Params:                core.Params{Inputs: fs.Inputs, Outputs: fs.Outputs},
		PortsTesterAccessible: true,
	}
	for _, lc := range res.Cores {
		top.Children = append(top.Children, &core.Module{
			Name: lc.Name,
			Params: core.Params{
				Inputs:    lc.Inputs,
				Outputs:   lc.Outputs,
				ScanCells: lc.ScanCells,
				Patterns:  lc.Patterns,
			},
		})
	}
	res.SOC = &core.SOC{Name: name + "-live", Top: top, TMono: res.TMono}
	res.Report = res.SOC.Analyze()
	if col.Tracing() {
		col.Emit("live.result",
			obs.F("soc", name),
			obs.F("t_mono", res.TMono),
			obs.F("max_core_t", res.MaxCoreT),
			obs.F("eq2_holds", res.Eq2Holds()),
			obs.F("tdv_modular", res.Report.TDVModular),
			obs.F("tdv_mono_opt", res.Report.TDVMonoOpt))
	}
	spanAll.End()
	return res, nil
}

// liveCore runs ATPG on core i of a live experiment, instrumented by col,
// and returns its measured profile.
func liveCore(ctx context.Context, col *obs.Collector, socName string, i int, coreName string, c *netlist.Circuit, so atpg.Options) (LiveCore, error) {
	spanCore := col.StartSpan("live.core")
	so.Obs = col
	r, err := atpg.GenerateContext(ctx, c, so)
	coreTime := spanCore.End()
	if err != nil {
		return LiveCore{}, fmt.Errorf("repro: live %s core %d (%s): %w", socName, i+1, coreName, err)
	}
	st := c.ComputeStats()
	lc := LiveCore{
		Name:      fmt.Sprintf("Core%d(%s)", i+1, coreName),
		Inputs:    st.Inputs,
		Outputs:   st.Outputs,
		ScanCells: st.DFFs,
		Patterns:  r.PatternCount(),
		Coverage:  r.Coverage,
	}
	if col.Tracing() {
		col.Emit("live.core.result",
			obs.F("soc", socName),
			obs.F("core", lc.Name),
			obs.F("inputs", lc.Inputs),
			obs.F("outputs", lc.Outputs),
			obs.F("scan_cells", lc.ScanCells),
			obs.F("patterns", lc.Patterns),
			obs.F("coverage", lc.Coverage),
			obs.F("seconds", coreTime.Seconds()))
	}
	return lc, nil
}

// RenderLive renders a live experiment result in the Table 1/2 layout,
// with the Equation 2 verdict underneath.
func RenderLive(r *LiveResult) string {
	out := renderSOCTable(fmt.Sprintf("Live %s experiment (measured ATPG pattern counts)", r.Name), r.SOC)
	out += fmt.Sprintf("Eq.2 check: T_mono = %d >= max core T = %d: %v (mono coverage %.1f%%)\n",
		r.TMono, r.MaxCoreT, r.Eq2Holds(), r.MonoCoverage*100)
	return out
}
