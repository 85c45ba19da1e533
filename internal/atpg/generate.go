package atpg

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/faults"
	"repro/internal/faultsim"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/runctl"
)

// Options configures test generation.
type Options struct {
	// BacktrackLimit bounds the PODEM search per fault; a fault whose
	// search exceeds it is reported Aborted.
	BacktrackLimit int
	// RandomPatterns is the number of random bootstrap patterns evaluated
	// before deterministic generation (only those that detect new faults
	// are kept). Zero disables the random phase.
	RandomPatterns int
	// Compact enables static test-cube merging and reverse-order pattern
	// pruning.
	Compact bool
	// DynamicCompact integrates compaction into generation itself (the
	// paper's "dynamic compaction"): after PODEM detects its primary
	// target, up to DynamicTargets still-undetected faults are attempted
	// as secondary targets on the same cube before it is committed.
	DynamicCompact bool
	// DynamicTargets bounds the secondary targets tried per cube
	// (default 16 when DynamicCompact is set).
	DynamicTargets int
	// Passes retries faults aborted in earlier passes with a 10x larger
	// backtrack limit per extra pass (1 or 0 = single pass). Escalating
	// retries are how production ATPG converts aborts into detections or
	// redundancy proofs without paying the big limit everywhere.
	Passes int
	// Seed drives the random phase and the X-fill, making runs
	// reproducible.
	Seed int64
	// Checkpoint, when non-nil, periodically persists the main loop's
	// state to CheckpointConfig.Path and (with Resume) continues an
	// interrupted run from it. See CheckpointConfig.
	Checkpoint *CheckpointConfig
	// Obs receives instrumentation when non-nil: search-effort counters
	// (backtracks, decisions, implications), per-fault outcome events,
	// phase spans and the fault simulator's per-batch events. The nil
	// default keeps the hot path free of any observability cost.
	Obs *obs.Collector
	// Workers bounds the fault-simulation worker pool: every
	// fault-dropping simulation pass shards its fault list across up to
	// Workers goroutines, while random fill and the PODEM search stay
	// serial. 0 (the default) resolves to runtime.NumCPU(); 1 forces the
	// strictly serial path. Results are bit-identical for every setting,
	// so checkpoints written under any worker count resume under any
	// other. Workers is deliberately excluded from the checkpoint options
	// hash for the same reason.
	Workers int
}

// DefaultOptions returns the settings used by the paper-reproduction
// experiments.
func DefaultOptions() Options {
	return Options{
		BacktrackLimit: 100,
		RandomPatterns: 64,
		Compact:        true,
		Seed:           1,
	}
}

// The largest random budget and worker count a run may ask for. The
// random phase allocates one pattern per budgeted draw and each worker
// its own evaluator, so an unbounded count lets one request exhaust a
// shared process's memory.
const (
	MaxRandomPatterns = 1 << 16
	MaxWorkers        = 64
)

// Validate refuses options no run should start with: a negative count,
// a backtrack limit below 1, or a random budget or worker count past
// MaxRandomPatterns or MaxWorkers. The message begins with the option's
// flag and wire name (backtrack, random, dynamic_targets, passes,
// workers), so a command can prefix "-" and the server "options.".
func (o Options) Validate() error {
	for _, c := range []struct {
		name     string
		v        int
		min, max int // max 0 = unbounded
	}{
		{"backtrack", o.BacktrackLimit, 1, 0},
		{"random", o.RandomPatterns, 0, MaxRandomPatterns},
		{"dynamic_targets", o.DynamicTargets, 0, 0},
		{"passes", o.Passes, 0, 0},
		{"workers", o.Workers, 0, MaxWorkers},
	} {
		if c.v < c.min {
			return fmt.Errorf("%s must be >= %d, got %d", c.name, c.min, c.v)
		}
		if c.max > 0 && c.v > c.max {
			return fmt.Errorf("%s must be <= %d, got %d", c.name, c.max, c.v)
		}
	}
	return nil
}

// Outcome records the generation verdict for one fault.
type Outcome struct {
	Fault  faults.Fault
	Status Status
	// Backtracks is the PODEM search effort spent on the verdict — the
	// backtrack count of the deciding attempt. It grades detections by
	// difficulty (the SCOAP cross-check of internal/lint consumes this)
	// and shows how close an Aborted fault came to its limit. Secondary
	// detections from dynamic compaction report the effort of the
	// extension attempt that found them.
	Backtracks int
}

// Result is the output of test generation.
type Result struct {
	// Patterns is the final, fully specified pattern set (after
	// compaction if enabled), over the PseudoInputs frame.
	Patterns []logic.Cube
	// Cubes is the raw generated cube list before compaction: kept random
	// patterns followed by PODEM test cubes (with X bits).
	Cubes []logic.Cube
	// Outcomes lists the per-fault verdicts for faults targeted by PODEM.
	// Faults dropped by fault simulation before being targeted do not
	// appear; they are accounted for in NumDetected.
	Outcomes []Outcome
	// Fault accounting over the input fault list.
	NumFaults    int
	NumDetected  int
	NumRedundant int
	NumAborted   int
	// NumProvedRedundant counts faults the PODEM search Aborted that the
	// SAT redundancy prover (SettleAborted) then proved untestable. They
	// are excluded from the EffectiveCoverage denominator exactly like
	// NumRedundant.
	NumProvedRedundant int
	// Incomplete marks a partial result: the run was cancelled, hit its
	// deadline, or was cut short by a recovered failure before targeting
	// every fault. The pattern set and accounting are consistent for the
	// work actually done.
	Incomplete bool
	// Coverage is the final measured fault coverage of Patterns over the
	// input fault list, in [0, 1].
	Coverage float64
	// EffectiveCoverage excludes proven-redundant faults from the
	// denominator.
	EffectiveCoverage float64
}

// PatternCount returns the number of final patterns — the T of the paper's
// TDV formulas.
func (r *Result) PatternCount() int { return len(r.Patterns) }

// Generate runs test generation for the collapsed stuck-at universe of c.
// It panics on internal failure; context-aware callers should prefer
// GenerateContext, which returns typed errors instead.
func Generate(c *netlist.Circuit, opts Options) *Result {
	res, err := GenerateContext(context.Background(), c, opts)
	if err != nil {
		panic(err)
	}
	return res
}

// GenerateForFaults runs test generation for an explicit fault list.
// Per-cone ATPG passes the cone-filtered fault list here. It panics on
// internal failure; see GenerateForFaultsContext for the error-returning,
// cancellable form.
func GenerateForFaults(c *netlist.Circuit, flist []faults.Fault, opts Options) *Result {
	res, err := GenerateForFaultsContext(context.Background(), c, flist, opts)
	if err != nil {
		panic(err)
	}
	return res
}

// GenerateContext is Generate with cancellation: the run honours ctx at
// per-fault granularity and, when cancelled or past its deadline, returns
// a consistent partial Result (Incomplete set, accounting measured over
// the patterns actually generated) together with an error wrapping the
// context's. Internal panics are recovered at this boundary into a
// *runctl.PanicError carrying the circuit and fault under target.
func GenerateContext(ctx context.Context, c *netlist.Circuit, opts Options) (*Result, error) {
	if !c.Finalized() {
		return nil, fmt.Errorf("atpg: circuit %q not finalized", c.Name)
	}
	return GenerateForFaultsContext(ctx, c, faults.CollapsedUniverse(c), opts)
}

// GenerateForFaultsContext is the full-control entry point of the
// generator: explicit fault list, cancellation and deadlines via ctx, and
// optional checkpoint/resume via Options.Checkpoint. On any abnormal exit
// — cancellation, checkpoint-write failure, recovered panic — the returned
// Result holds the partial work (Incomplete set) and the error says why.
func GenerateForFaultsContext(ctx context.Context, c *netlist.Circuit, flist []faults.Fault, opts Options) (res *Result, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if !c.Finalized() {
		return nil, fmt.Errorf("atpg: circuit %q not finalized", c.Name)
	}
	if opts.BacktrackLimit <= 0 {
		opts.BacktrackLimit = 100
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	res = &Result{NumFaults: len(flist)}
	width := len(c.PseudoInputs())
	workers := par.Workers(opts.Workers)

	col := opts.Obs
	spanGen := col.StartSpan("atpg.generate")
	col.Gauge("atpg.workers").Set(int64(workers))
	if col.Tracing() {
		col.Emit("atpg.start",
			obs.F("circuit", c.Name),
			obs.F("faults", len(flist)),
			obs.F("inputs", width),
			obs.F("backtrack_limit", opts.BacktrackLimit),
			obs.F("random_patterns", opts.RandomPatterns),
			obs.F("seed", opts.Seed),
			obs.F("workers", workers))
	}

	var cubes []logic.Cube
	failed := make(map[faults.Fault]Status)

	// Panic boundary: a panic anywhere below (netlist, sim, faultsim, the
	// search itself) is converted into a typed error carrying the circuit
	// and the fault under target, with the committed partial work kept on
	// the Result. The process — and the caller's other cores — survive.
	var (
		curFault  faults.Fault
		haveFault bool
	)
	defer func() {
		if r := recover(); r != nil {
			detail := ""
			if haveFault {
				detail = "fault " + curFault.String(c)
			}
			res.Cubes = cubes
			res.Incomplete = true
			err = &runctl.PanicError{
				Op: "atpg.generate", Circuit: c.Name, Detail: detail,
				Value: r, Stack: debug.Stack(),
			}
			col.Counter("atpg.panics.recovered").Inc()
			if col.Tracing() {
				col.Emit("atpg.panic",
					obs.F("circuit", c.Name),
					obs.F("detail", detail),
					obs.F("value", fmt.Sprint(r)))
			}
		}
	}()

	// Checkpoint setup and resume. The options hash binds a checkpoint to
	// this exact circuit + fault list + option set; anything else refuses
	// to resume rather than silently diverging.
	ckpt := opts.Checkpoint
	var (
		ckptHash  string
		randDraws int64 // RNG draws the random phase consumed
		resumed   bool
		loopDone  bool // main PODEM loop already completed (per checkpoint)
	)
	if ckpt != nil {
		ckptHash = optionsHash(c, len(flist), opts)
		if ckpt.Resume {
			st, lerr := loadCheckpoint(ckpt.Path, ckptHash)
			switch {
			case lerr == nil:
				cubes, res.Outcomes, failed, lerr = st.restore(ckpt.Path, width)
				if lerr != nil {
					return res, lerr
				}
				// Fast-forward the RNG to the exact position the
				// interrupted run left it at, so compaction's X-fill draws
				// the identical stream.
				for i := int64(0); i < st.RandDraws; i++ {
					rng.Intn(2)
				}
				randDraws = st.RandDraws
				resumed = true
				loopDone = st.Complete
				col.Counter("atpg.resumed").Inc()
				if col.Tracing() {
					col.Emit("atpg.resume",
						obs.F("circuit", c.Name),
						obs.F("path", ckpt.Path),
						obs.F("cubes", len(cubes)),
						obs.F("outcomes", len(res.Outcomes)),
						obs.F("complete", loopDone))
				}
			case errors.Is(lerr, fs.ErrNotExist):
				// No checkpoint yet: fresh run.
			default:
				return res, lerr
			}
		}
	}
	saveCkpt := func(complete bool) error {
		if ckpt == nil {
			return nil
		}
		st := snapshotCkpt(c.Name, ckptHash, randDraws, complete, cubes, res.Outcomes)
		if serr := st.save(ckpt.Path); serr != nil {
			return serr
		}
		col.Counter("atpg.checkpoints.written").Inc()
		if col.Tracing() {
			col.Emit("atpg.checkpoint",
				obs.F("circuit", c.Name),
				obs.F("path", ckpt.Path),
				obs.F("cubes", len(cubes)),
				obs.F("complete", complete))
		}
		return nil
	}
	// finishPartial closes out a cancelled run: final checkpoint, then a
	// consistent Result over the patterns generated so far (zero-filled,
	// authoritatively fault-simulated), marked Incomplete.
	finishPartial := func(stage string, cause error) (*Result, error) {
		res.Incomplete = true
		res.Cubes = cubes
		if serr := saveCkpt(loopDone); serr != nil {
			cause = errors.Join(cause, serr)
		}
		res.Patterns = fillZero(cubes)
		span := col.StartSpan("atpg.finalize")
		finalizeAccounting(failed, res, col, faultsim.SimulateWorkers(c, res.Patterns, flist, workers).NumDetected)
		span.End()
		col.Counter("atpg.canceled").Inc()
		if col.Tracing() {
			col.Emit("atpg.canceled",
				obs.F("circuit", c.Name),
				obs.F("stage", stage),
				obs.F("patterns", res.PatternCount()),
				obs.F("coverage", res.Coverage))
		}
		spanGen.End()
		return res, fmt.Errorf("atpg: %s on %q stopped with %d patterns, coverage %.1f%%: %w",
			stage, c.Name, res.PatternCount(), res.Coverage*100, cause)
	}

	// Setup: the run's one compiled Program, shared by every engine and
	// PODEM search below, and the generation engine. The engine's detection
	// state is a pure function of the applied cube list, so a resumed run
	// replays its checkpointed cubes here and continues the exact
	// computation the interrupted run was performing. The replay happens
	// before Instrument: only new work reaches the counters.
	spanSetup := col.StartSpan("atpg.setup")
	prog := faultsim.Compile(c)
	engine := faultsim.NewEngineFor(prog, flist)
	engine.SetWorkers(workers)
	engine.Apply(cubes)
	// Instrumented so the random phase — where most of the sharded
	// fault-simulation work happens — contributes its batch counters and
	// per-worker busy-time timers to the run manifest.
	engine.Instrument(col)
	pd := newPodem(prog, opts.BacktrackLimit, col)
	spanSetup.End()

	// Phase 1: random bootstrap. Apply the whole budget, then keep only
	// the patterns that are some fault's first detector — dropping the
	// rest cannot lose any detection. A resumed run skips the phase: its
	// kept patterns are already in the checkpoint's cube list.
	if !resumed && opts.RandomPatterns > 0 && width > 0 {
		spanRand := col.StartSpan("atpg.phase.random")
		randPats := make([]logic.Cube, opts.RandomPatterns)
		for i := range randPats {
			p := make(logic.Cube, width)
			for j := range p {
				p[j] = logic.FromBool(rng.Intn(2) == 1)
			}
			randPats[i] = p
		}
		randDraws = int64(opts.RandomPatterns) * int64(width)
		engine.Apply(randPats)
		useful := firstDetectors(engine, len(randPats))
		for i, p := range randPats {
			if useful[i] {
				cubes = append(cubes, p)
			}
		}
		// The random-vs-deterministic detection split of the final set is
		// decided here: these faults never become PODEM targets.
		col.Counter("atpg.detected.random").Add(int64(engine.DetectedCount()))
		col.Counter("atpg.random.kept").Add(int64(len(cubes)))
		if col.Tracing() {
			col.Emit("atpg.random",
				obs.F("budget", opts.RandomPatterns),
				obs.F("kept", len(cubes)),
				obs.F("detected", engine.DetectedCount()))
		}
		spanRand.End()
	}

	// Phase 2: deterministic PODEM with lazy fault dropping. The
	// random-phase engine continues as is: every fault it detected has its
	// first detector among the kept patterns, so its remaining set is
	// exactly the kept list's. New cubes are queued on the engine, not
	// applied one by one: a fault is skipped as a target when the applied
	// patterns or a queued cube detect it, which is exactly "not in the
	// remaining set of an engine that applied every cube so far". Targets
	// are taken in fault-list order and each one ends detected or failed,
	// so the scan resumes from a cursor past the last target. A full batch
	// of 64 queued cubes is flushed; the rest flush after the loop.
	cTargeted := col.Counter("atpg.faults.targeted")
	cDetDet := col.Counter("atpg.detected.deterministic")
	sinceCkpt := 0
	if !loopDone {
		spanPodem := col.StartSpan("atpg.phase.podem")
		clk := &podemClock{on: col != nil}
		for next := 0; ; {
			clk.lap()
			ti := nextTarget(engine, flist, failed, next, ^uint64(0))
			clk.drop += clk.lap()
			if ti < 0 {
				break
			}
			target := flist[ti]
			next = ti + 1
			// Cancellation check, once per fault: cheap against the cost
			// of a PODEM search, fine-grained enough that a deadline stops
			// the run within one fault's work.
			if cerr := ctx.Err(); cerr != nil {
				return finishPartial("generation", cerr)
			}
			curFault, haveFault = target, true
			if ferr := runctl.Hit(FPFault); ferr != nil {
				panic(ferr) // simulated internal failure; recovered at the boundary
			}
			cTargeted.Inc()
			clk.lap()
			cube, status := pd.run(target)
			clk.search += clk.lap()
			if col.Tracing() {
				col.Emit("atpg.fault",
					obs.F("fault", target.String(c)),
					obs.F("status", status.String()),
					obs.F("backtracks", pd.backtracks),
					obs.F("pass", 1))
			}
			switch status {
			case Detected:
				cDetDet.Inc()
				lane := engine.Queue(cube)
				if !queuedDetects(engine, lane, target) {
					// A cube that fails verification indicates a search bug;
					// never silently accept it.
					panic(fmt.Sprintf("atpg: generated cube %v does not detect %s", cube, target.String(c)))
				}
				clk.drop += clk.lap()
				if opts.DynamicCompact {
					cube = extendCube(c, pd, engine, lane, next, cube, target, flist, failed, opts, res, clk)
				}
				cubes = append(cubes, cube)
				flushFull(engine)
				clk.drop += clk.lap()
				res.Outcomes = append(res.Outcomes, Outcome{target, Detected, pd.backtracks})
			case Redundant, Aborted:
				failed[target] = status
				res.Outcomes = append(res.Outcomes, Outcome{target, status, pd.backtracks})
			}
			haveFault = false
			sinceCkpt++
			if ckpt != nil && sinceCkpt >= ckpt.every() {
				sinceCkpt = 0
				if serr := saveCkpt(false); serr != nil {
					res.Cubes = cubes
					res.Incomplete = true
					clk.record(col)
					spanPodem.End()
					spanGen.End()
					return res, serr
				}
			}
		}
		engine.Flush()
		clk.drop += clk.lap()
		clk.record(col)
		spanPodem.End()
		loopDone = true
		// Seal the main loop's state so a crash in the (cheap, re-runnable)
		// escalation/compaction phases resumes from here, not from scratch.
		if serr := saveCkpt(true); serr != nil {
			res.Cubes = cubes
			res.Incomplete = true
			spanGen.End()
			return res, serr
		}
	}

	// Phase 2b: escalation passes over the aborted faults. They read the
	// verdicts, not the remaining set, so their cubes queue too; the batch
	// flushes when full and after the last pass. A pass with no aborted
	// fault left ends the escalation: no later pass could change anything.
	limit := opts.BacktrackLimit
	for pass := 2; pass <= opts.Passes; pass++ {
		if cerr := ctx.Err(); cerr != nil {
			return finishPartial("escalation", cerr)
		}
		var targets []faults.Fault
		for f, st := range failed {
			if st == Aborted {
				targets = append(targets, f)
			}
		}
		if len(targets) == 0 {
			break
		}
		sortFaults(targets)
		limit *= 10
		spanEsc := col.StartSpan("atpg.phase.escalate")
		retry := newPodem(prog, limit, col)
		col.Counter("atpg.escalated").Add(int64(len(targets)))
		for _, f := range targets {
			if cerr := ctx.Err(); cerr != nil {
				spanEsc.End()
				return finishPartial("escalation", cerr)
			}
			curFault, haveFault = f, true
			cube, status := retry.run(f)
			if col.Tracing() {
				col.Emit("atpg.fault",
					obs.F("fault", f.String(c)),
					obs.F("status", status.String()),
					obs.F("backtracks", retry.backtracks),
					obs.F("pass", pass))
			}
			switch status {
			case Detected:
				cDetDet.Inc()
				if !queuedDetects(engine, engine.Queue(cube), f) {
					panic(fmt.Sprintf("atpg: retry cube does not detect %s", f.String(c)))
				}
				delete(failed, f)
				cubes = append(cubes, cube)
				flushFull(engine)
				res.Outcomes = append(res.Outcomes, Outcome{f, Detected, retry.backtracks})
			case Redundant:
				failed[f] = Redundant
				res.Outcomes = append(res.Outcomes, Outcome{f, Redundant, retry.backtracks})
			case Aborted:
				// Stays aborted; a later pass may escalate again.
			}
			haveFault = false
		}
		spanEsc.End()
	}
	engine.Flush()
	res.Cubes = cubes

	// Phase 3: compaction. Without it, X bits fill with 0 — the same
	// convention the fault-dropping engine used, so every detection the
	// generation loop credited survives into the final set, and the
	// generation engine has applied exactly the final set. The compacted
	// path uses random fill (better fortuitous coverage), prunes on the
	// generation engine, reset, and repairs any fill-dependent loss with
	// the top-up loop below, after which that engine holds the final set's
	// detections. Either way, final accounting reads the engine instead of
	// simulating the set once more.
	spanCompact := col.StartSpan("atpg.phase.compact")
	var patterns []logic.Cube
	if !opts.Compact {
		patterns = fillZero(cubes)
	} else {
		span := col.StartSpan("atpg.compact.merge")
		patterns = fillAll(mergeCubes(cubes), rng)
		span.End()
		span = col.StartSpan("atpg.compact.prune")
		patterns = reversePrune(engine, patterns)
		span.End()
		// Fortuitous detections can depend on the fill; top up any
		// coverage lost by re-targeting newly undetected faults.
		span = col.StartSpan("atpg.compact.topup")
		var cerr error
		patterns, cerr = topUp(ctx, engine, patterns, func(f faults.Fault) (logic.Cube, bool) {
			if _, bad := failed[f]; bad {
				return nil, false
			}
			curFault, haveFault = f, true
			cube, status := pd.run(f)
			haveFault = false
			if status != Detected {
				failed[f] = status
				return nil, false
			}
			return cube.Fill(func(int) logic.V {
				return logic.FromBool(rng.Intn(2) == 1)
			}), true
		})
		span.End()
		if cerr != nil {
			spanCompact.End()
			return finishPartial("compaction", cerr)
		}
	}
	spanCompact.End()
	res.Patterns = patterns

	span := col.StartSpan("atpg.finalize")
	finalizeAccounting(failed, res, col, engine.DetectedCount())
	span.End()
	if col.Tracing() {
		col.Emit("atpg.result",
			obs.F("circuit", c.Name),
			obs.F("patterns", res.PatternCount()),
			obs.F("cubes", len(res.Cubes)),
			obs.F("detected", res.NumDetected),
			obs.F("redundant", res.NumRedundant),
			obs.F("aborted", res.NumAborted),
			obs.F("coverage", res.Coverage))
	}
	spanGen.End()
	return res, nil
}

// finalizeAccounting fills in the coverage bookkeeping of res, given the
// number of faults res.Patterns detects (from an engine that has applied
// exactly that set, or from a fresh simulation of it). It is shared by the
// complete and the cancelled exits, so a partial Result is exactly as
// consistent as a full one.
func finalizeAccounting(failed map[faults.Fault]Status, res *Result, col *obs.Collector, detected int) {
	res.NumDetected = detected
	res.NumRedundant, res.NumAborted, res.NumProvedRedundant = 0, 0, 0
	for _, st := range failed {
		switch st {
		case Redundant:
			res.NumRedundant++
		case Aborted:
			res.NumAborted++
		case ProvedRedundant:
			res.NumProvedRedundant++
		}
	}
	res.Coverage = 1
	if res.NumFaults > 0 {
		res.Coverage = float64(res.NumDetected) / float64(res.NumFaults)
	}
	den := res.NumFaults - res.NumRedundant - res.NumProvedRedundant
	if den <= 0 {
		res.EffectiveCoverage = 1
	} else {
		res.EffectiveCoverage = float64(res.NumDetected) / float64(den)
	}
	col.Gauge("atpg.patterns").Set(int64(res.PatternCount()))
	col.Gauge("atpg.cubes").Set(int64(len(res.Cubes)))
	col.Counter("atpg.detected").Add(int64(res.NumDetected))
	col.Counter("atpg.redundant").Add(int64(res.NumRedundant))
	col.Counter("atpg.aborted").Add(int64(res.NumAborted))
}

// nextTarget returns the index of the first fault at or after flist index
// from that carries no verdict in failed and that neither the engine's
// applied patterns nor the queued cubes in lanes detect, or -1.
func nextTarget(e *faultsim.Engine, flist []faults.Fault, failed map[faults.Fault]Status, from int, lanes uint64) int {
	for i := e.NextRemaining(from); i >= 0; i = e.NextRemaining(i + 1) {
		if _, done := failed[flist[i]]; done {
			continue
		}
		if e.QueuedDetects(flist[i])&lanes != 0 {
			continue
		}
		return i
	}
	return -1
}

// queuedDetects reports whether the cube queued in lane detects f: the
// compiled check every generated cube must pass before it is committed.
func queuedDetects(e *faultsim.Engine, lane int, f faults.Fault) bool {
	return e.QueuedDetects(f)>>uint(lane)&1 == 1
}

// flushFull flushes the engine's pending batch once it fills all 64 lanes.
func flushFull(e *faultsim.Engine) {
	if e.Pending() == 64 {
		e.Flush()
	}
}

// extendCube performs dynamic compaction: secondary still-undetected
// faults are targeted under the committed bits of cube; every success
// merges more assignments in. Secondary failures are NOT recorded as
// verdicts — a fault incompatible with this particular cube is simply left
// for a later primary attempt.
//
// The cube is queued on the engine in lane. Candidates are the faults
// after the primary (every remaining fault before it carries a verdict)
// that no earlier cube detects: the queued lanes below lane. Each accepted
// extension replaces the cube in lane and must detect both the secondary
// and the primary.
func extendCube(c *netlist.Circuit, pd *podem, engine *faultsim.Engine, lane, from int,
	cube logic.Cube, primary faults.Fault, flist []faults.Fault, failed map[faults.Fault]Status,
	opts Options, res *Result, clk *podemClock) logic.Cube {
	limit := opts.DynamicTargets
	if limit <= 0 {
		limit = 16
	}
	earlier := uint64(1)<<uint(lane) - 1
	for tried := 0; tried < limit; tried++ {
		i := nextTarget(engine, flist, failed, from, earlier)
		if i < 0 {
			break
		}
		g := flist[i]
		from = i + 1
		clk.drop += clk.lap()
		extended, status := pd.runWithBase(g, cube)
		clk.search += clk.lap()
		if status != Detected {
			continue
		}
		engine.Unqueue()
		engine.Queue(extended)
		if !queuedDetects(engine, lane, g) {
			panic(fmt.Sprintf("atpg: dynamic extension %v does not detect %s", extended, g.String(c)))
		}
		if !queuedDetects(engine, lane, primary) {
			// The extension may only refine X bits, never break the
			// primary detection; a violation is a search bug.
			panic("atpg: dynamic extension broke the primary detection")
		}
		clk.drop += clk.lap()
		cube = extended
		opts.Obs.Counter("atpg.detected.secondary").Inc()
		if opts.Obs.Tracing() {
			opts.Obs.Emit("atpg.fault",
				obs.F("fault", g.String(c)),
				obs.F("status", Detected.String()),
				obs.F("secondary", true))
		}
		res.Outcomes = append(res.Outcomes, Outcome{g, Detected, pd.backtracks})
	}
	return cube
}

// topUp repairs the coverage a compacted, randomly filled pattern set can
// lose: for up to three rounds, every fault check still misses is offered
// to retarget, and each pattern it returns is appended. check's remaining
// faults must be exactly those the given set misses; each round then
// applies only the patterns the previous round appended. On a nil error,
// check has applied every returned pattern.
func topUp(ctx context.Context, check *faultsim.Engine, patterns []logic.Cube,
	retarget func(faults.Fault) (logic.Cube, bool)) ([]logic.Cube, error) {
	applied := len(patterns)
	for iter := 0; iter < 3; iter++ {
		if err := ctx.Err(); err != nil {
			return patterns, err
		}
		check.Apply(patterns[applied:])
		applied = len(patterns)
		missing := 0
		for _, f := range check.Remaining() {
			if p, ok := retarget(f); ok {
				patterns = append(patterns, p)
				missing++
			}
		}
		if missing == 0 {
			break
		}
	}
	// The last round's patterns, so check has applied the whole set.
	check.Apply(patterns[applied:])
	return patterns, nil
}

// podemClock splits the PODEM phase into search time and fault-dropping
// time (cube verification plus engine.Apply). It reads the clock only
// when a collector is attached, so the uninstrumented loop pays nothing.
type podemClock struct {
	on           bool
	mark         time.Time
	search, drop time.Duration
}

// lap returns the time since the previous lap and starts the next one.
func (k *podemClock) lap() time.Duration {
	if !k.on {
		return 0
	}
	// lintgo:allow GO002 phase timers report wall time; results ignore it.
	now := time.Now()
	d := now.Sub(k.mark)
	k.mark = now
	return d
}

// record observes the accumulated split on the atpg.podem.search and
// atpg.podem.drop timers.
func (k *podemClock) record(col *obs.Collector) {
	col.Timer("atpg.podem.search").Observe(k.search)
	col.Timer("atpg.podem.drop").Observe(k.drop)
}

// mergeCubes greedily merges compatible cubes, most-specified first — the
// static compaction of the paper's Section 3. Ties keep their input order,
// and each cube merges into the first compatible merged cube. Cubes are
// tested and merged in their packed form (logic.Pack); each merge keeps
// its first cube's other positions.
func mergeCubes(cubes []logic.Cube) []logic.Cube {
	spec := make([]int, len(cubes))
	order := make([]int, len(cubes))
	for i, c := range cubes {
		spec[i] = c.Specified()
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return spec[order[a]] > spec[order[b]] })

	var seeds []logic.Cube
	var merged []logic.Packed
	for _, idx := range order {
		c, p := cubes[idx], logic.Pack(cubes[idx])
		i := 0
		for i < len(merged) && !(len(seeds[i]) == len(c) && merged[i].Compatible(p)) {
			i++
		}
		if i < len(merged) {
			merged[i].Merge(p)
		} else {
			seeds, merged = append(seeds, c), append(merged, p)
		}
	}

	out := make([]logic.Cube, len(seeds))
	for i, seed := range seeds {
		out[i] = seed.Clone()
		merged[i].Unpack(out[i])
	}
	return out
}

// fillAll X-fills every cube with seeded random values.
func fillAll(cubes []logic.Cube, rng *rand.Rand) []logic.Cube {
	out := make([]logic.Cube, len(cubes))
	for i, c := range cubes {
		out[i] = c.Fill(func(int) logic.V { return logic.FromBool(rng.Intn(2) == 1) })
	}
	return out
}

// reversePrune drops patterns that add no detection when the set is fault
// simulated in reverse order — classic reverse-order compaction. It resets
// e, detaching its collector, and applies the reversed list in one Apply,
// which keeps each fault's first detector, the same set a
// pattern-at-a-time pass keeps. Afterwards e has applied every pattern, so
// its remaining faults are exactly those the kept set misses.
func reversePrune(e *faultsim.Engine, patterns []logic.Cube) []logic.Cube {
	n := len(patterns)
	rev := make([]logic.Cube, n)
	for i, p := range patterns {
		rev[n-1-i] = p
	}
	e.Reset()
	e.Apply(rev)
	useful := firstDetectors(e, n)
	kept := make([]logic.Cube, 0, n)
	for i, p := range patterns {
		if useful[n-1-i] {
			kept = append(kept, p)
		}
	}
	return kept
}

// firstDetectors marks which of the n patterns applied to a fresh engine
// are some fault's first detector: the patterns a fault-dropping pass
// cannot do without.
func firstDetectors(e *faultsim.Engine, n int) []bool {
	useful := make([]bool, n)
	for _, d := range e.DetectedBy() {
		if d != faultsim.Undetected {
			useful[d] = true
		}
	}
	return useful
}

// sortFaults orders faults deterministically.
func sortFaults(fs []faults.Fault) {
	sort.Slice(fs, func(i, j int) bool { return fs[i].Less(fs[j]) })
}

// fillZero X-fills every cube with zeros, matching the fault-simulation
// engine's X-as-0 convention.
func fillZero(cubes []logic.Cube) []logic.Cube {
	out := make([]logic.Cube, len(cubes))
	for i, c := range cubes {
		out[i] = c.Fill(func(int) logic.V { return logic.Zero })
	}
	return out
}
