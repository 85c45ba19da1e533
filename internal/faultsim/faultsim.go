// Package faultsim implements stuck-at fault simulation over full-scan
// circuits. The workhorse is a 64-wide PPSFP (parallel-pattern single-fault
// propagation) engine with fault dropping: the netlist is compiled once into
// a levelized evaluation Program, 64 patterns are packed per machine word,
// the good circuit is evaluated in one word-wide pass per batch, and each
// fault is then propagated event-driven through its fanout cone only. Two
// deliberately independent reference implementations cross-check it: the
// pattern-at-a-time serial engine (SerialSimulate/SerialDetects, any input
// width) and the exhaustive brute-force Oracle (<= 16 inputs).
package faultsim

import (
	"context"
	"fmt"
	"time"

	"repro/internal/faults"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/par"
)

// Undetected marks a fault with no detecting pattern.
const Undetected = -1

// wordBits is the number of patterns packed into one machine word: the
// size of a PPSFP batch.
const wordBits = 64

// Result reports the outcome of simulating a pattern set against a fault
// list. Faults and DetectedBy are parallel: DetectedBy[i] is the index of
// the first pattern detecting Faults[i], or Undetected.
type Result struct {
	Faults      []faults.Fault
	DetectedBy  []int
	NumDetected int
}

// Coverage returns the fault coverage in [0, 1]; 1 for an empty fault list.
func (r *Result) Coverage() float64 {
	if len(r.Faults) == 0 {
		return 1
	}
	return float64(r.NumDetected) / float64(len(r.Faults))
}

// UndetectedFaults returns the faults with no detecting pattern.
func (r *Result) UndetectedFaults() []faults.Fault {
	var out []faults.Fault
	for i, d := range r.DetectedBy {
		if d == Undetected {
			out = append(out, r.Faults[i])
		}
	}
	return out
}

// Simulate runs the pattern set against the fault list with fault dropping
// and returns the per-fault first detection.
func Simulate(c *netlist.Circuit, patterns []logic.Cube, flist []faults.Fault) *Result {
	return SimulateWorkers(c, patterns, flist, 1)
}

// SimulateWorkers is Simulate with the fault list sharded across up to
// `workers` goroutines per 64-pattern batch (0 resolves to runtime.NumCPU()).
// The result is bit-identical to Simulate for every worker count.
func SimulateWorkers(c *netlist.Circuit, patterns []logic.Cube, flist []faults.Fault, workers int) *Result {
	e := NewEngine(c, flist)
	e.SetWorkers(workers)
	e.Apply(patterns)
	return e.Result()
}

// SimulateContext is Simulate with cancellation at 64-pattern batch
// granularity. On cancellation it returns the partial Result over the
// batches actually simulated, together with the context's error.
func SimulateContext(ctx context.Context, c *netlist.Circuit, patterns []logic.Cube, flist []faults.Fault) (*Result, error) {
	e := NewEngine(c, flist)
	_, err := e.ApplyContext(ctx, patterns)
	return e.Result(), err
}

// Engine is an incremental fault simulator: patterns are fed in batches via
// Apply, detected faults are dropped, and Remaining reports the survivors.
// ATPG drives an Engine pattern by pattern.
//
// Internally the engine is a 64-wide PPSFP (parallel-pattern single-fault
// propagation) kernel over a compiled Program: the good circuit is evaluated
// once per 64-pattern batch in compiled topological order, then each
// remaining fault is propagated event-driven through its fanout cone only,
// with word-wide operations and a per-fault detection mask.
type Engine struct {
	c    *netlist.Circuit
	prog *Program

	flist      []faults.Fault
	detectedBy []int // parallel to flist
	remaining  []int // indices into flist still undetected
	nDetected  int
	nPatterns  int

	good []uint64 // good-circuit words of the current batch

	ppos   []netlist.GateID
	dffPPO map[netlist.GateID][]int // DFF gate -> indices in ppo frame

	// Parallel detection. workers is the shard bound (1 = strictly serial);
	// ev is the serial evaluator, evals the lazily-grown per-worker pool,
	// and dets the index-addressed detection-word slots (parallel to
	// remaining) that workers fill and the serial merge consumes in order.
	workers int
	ev      *faultEval
	evals   []*faultEval
	dets    []uint64

	// Observability (all nil/false by default: zero overhead).
	col         *obs.Collector
	cPatterns   *obs.Counter // faultsim.patterns.applied
	cDropped    *obs.Counter // faultsim.faults.dropped
	cBatches    *obs.Counter // faultsim.batches
	tWorkers    []*obs.Timer // faultsim.worker.N busy time (sharded batches)
	recordCurve bool
	curve       []CurvePoint
}

// minShardFaults is the remaining-fault count below which a batch is
// simulated serially even on a multi-worker engine: under this size the
// goroutine fan-out costs more than the detection words it spreads out.
// The threshold never affects results, only wall-clock. A variable so the
// determinism tests can force tiny circuits through the sharded path.
var minShardFaults = 128

// faultEval holds the per-goroutine scratch state of single-fault
// propagation: the epoch-validated faulty words over the good-circuit words
// of the engine's current batch, plus the level-bucketed event queue that
// drives propagation through the fault's fanout cone. Each worker owns one
// evaluator, so sharded detection touches no shared mutable state.
type faultEval struct {
	e       *Engine
	fw      []uint64 // faulty words (epoch-validated)
	epoch   []uint32 // fw[g] valid iff epoch[g] == cur
	inq     []uint32 // g enqueued this fault iff inq[g] == cur
	cur     uint32
	buckets [][]int32 // per-level event queue, reused across faults
	scratch []uint64
}

func newFaultEval(e *Engine) *faultEval {
	return &faultEval{
		e:       e,
		fw:      make([]uint64, e.c.NumGates()),
		epoch:   make([]uint32, e.c.NumGates()),
		inq:     make([]uint32, e.c.NumGates()),
		buckets: make([][]int32, e.prog.NumLevels()),
	}
}

// CurvePoint is one point of the coverage-vs-pattern curve: the cumulative
// detected-fault count after Patterns patterns have been applied.
type CurvePoint struct {
	Patterns int
	Detected int
}

// NewEngine returns an engine over the given collapsed fault list.
func NewEngine(c *netlist.Circuit, flist []faults.Fault) *Engine {
	if !c.Finalized() {
		panic("faultsim: circuit not finalized")
	}
	e := &Engine{
		c:          c,
		prog:       Compile(c),
		flist:      flist,
		detectedBy: make([]int, len(flist)),
		good:       make([]uint64, c.NumGates()),
		ppos:       c.PseudoOutputs(),
		dffPPO:     make(map[netlist.GateID][]int),
		workers:    1,
	}
	e.ev = newFaultEval(e)
	for i := range e.detectedBy {
		e.detectedBy[i] = Undetected
		e.remaining = append(e.remaining, i)
	}
	// Map each DFF to the response-frame positions it captures, for
	// branch faults on DFF data pins.
	outs := len(c.Outputs())
	for i, d := range c.DFFs() {
		e.dffPPO[d] = append(e.dffPPO[d], outs+i)
	}
	return e
}

// Instrument attaches an observability collector: per-batch counters
// (patterns applied, faults dropped, batches simulated) and, when the
// collector traces, a "faultsim.batch" event per 64-pattern batch carrying
// the running coverage-vs-pattern curve. Instrumenting also enables curve
// recording. A nil collector is a no-op.
func (e *Engine) Instrument(col *obs.Collector) {
	if col == nil {
		return
	}
	e.col = col
	e.cPatterns = col.Counter("faultsim.patterns.applied")
	e.cDropped = col.Counter("faultsim.faults.dropped")
	e.cBatches = col.Counter("faultsim.batches")
	e.EnableCurve()
}

// SetWorkers bounds the worker pool Apply may use to shard the
// remaining-fault list per 64-pattern batch: n > 1 shards, n == 1 (the
// default) keeps the engine strictly serial, and n <= 0 resolves to
// runtime.NumCPU(). Detection outcomes are bit-identical for every
// setting — workers write detection words into index-addressed slots and
// the fault-dropping merge stays serial, in fault order — so only
// wall-clock changes.
func (e *Engine) SetWorkers(n int) {
	e.workers = par.Workers(n)
}

// Workers reports the engine's resolved worker bound.
func (e *Engine) Workers() int { return e.workers }

// EnableCurve turns on coverage-vs-pattern curve recording (one point per
// applied batch). Off by default so the ATPG hot path pays nothing.
func (e *Engine) EnableCurve() { e.recordCurve = true }

// CoverageCurve returns the recorded coverage-vs-pattern curve (empty
// unless EnableCurve or Instrument was called before Apply).
func (e *Engine) CoverageCurve() []CurvePoint {
	return append([]CurvePoint(nil), e.curve...)
}

// NumPatterns returns the number of patterns applied so far.
func (e *Engine) NumPatterns() int { return e.nPatterns }

// DetectedCount returns the number of faults detected so far.
func (e *Engine) DetectedCount() int { return e.nDetected }

// Coverage returns current fault coverage in [0, 1].
func (e *Engine) Coverage() float64 {
	if len(e.flist) == 0 {
		return 1
	}
	return float64(e.nDetected) / float64(len(e.flist))
}

// Remaining returns the still-undetected faults (a fresh slice).
func (e *Engine) Remaining() []faults.Fault {
	out := make([]faults.Fault, 0, len(e.remaining))
	for _, i := range e.remaining {
		out = append(out, e.flist[i])
	}
	return out
}

// Result snapshots the engine state into a Result.
func (e *Engine) Result() *Result {
	return &Result{
		Faults:      e.flist,
		DetectedBy:  append([]int(nil), e.detectedBy...),
		NumDetected: e.nDetected,
	}
}

// Apply fault-simulates the given patterns (any count; they are batched 64
// at a time) and returns how many previously-undetected faults they detect.
// Patterns with X bits are simulated with X loaded as 0, matching the
// deterministic X-fill convention of the ATPG.
func (e *Engine) Apply(patterns []logic.Cube) int {
	n, _ := e.apply(nil, patterns)
	return n
}

// ApplyContext is Apply with cancellation between 64-pattern batches: a
// cancelled context stops the simulation at the next batch boundary and
// returns ctx's error with the detections counted so far. The engine state
// stays consistent — every fully applied batch is accounted — so a caller
// may inspect Result and continue or abandon as it sees fit.
func (e *Engine) ApplyContext(ctx context.Context, patterns []logic.Cube) (int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	return e.apply(ctx, patterns)
}

func (e *Engine) apply(ctx context.Context, patterns []logic.Cube) (int, error) {
	newly := 0
	for off := 0; off < len(patterns); off += wordBits {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				// Account only the patterns actually simulated.
				e.nPatterns += off
				return newly, err
			}
		}
		end := off + wordBits
		if end > len(patterns) {
			end = len(patterns)
		}
		dropped := e.applyBatch(patterns[off:end], e.nPatterns+off)
		newly += dropped
		e.cPatterns.Add(int64(end - off))
		e.cDropped.Add(int64(dropped))
		e.cBatches.Inc()
		if e.recordCurve {
			e.curve = append(e.curve, CurvePoint{Patterns: e.nPatterns + end, Detected: e.nDetected})
		}
		if e.col.Tracing() {
			e.col.Emit("faultsim.batch",
				obs.F("patterns", e.nPatterns+end),
				obs.F("batch_size", end-off),
				obs.F("dropped", dropped),
				obs.F("detected", e.nDetected),
				obs.F("remaining", len(e.remaining)),
				obs.F("coverage", e.Coverage()))
		}
	}
	e.nPatterns += len(patterns)
	return newly, nil
}

func (e *Engine) applyBatch(batch []logic.Cube, baseIndex int) int {
	if len(e.remaining) == 0 {
		return 0
	}
	mask := e.prog.Load(e.good, batch)
	e.prog.Run(e.good)

	// Detection words come either from the per-worker shards (index-
	// addressed slots, one per remaining fault) or from the serial
	// evaluator; the drop/first-detection merge below is serial and in
	// fault order either way, so both paths are bit-identical.
	var dets []uint64
	if e.workers > 1 && len(e.remaining) >= minShardFaults {
		dets = e.shardDetect(mask)
	}

	newly := 0
	keep := e.remaining[:0]
	for i, fi := range e.remaining {
		var det uint64
		if dets != nil {
			det = dets[i]
		} else {
			det = e.ev.detectWord(e.flist[fi], mask)
		}
		if det == 0 {
			keep = append(keep, fi)
			continue
		}
		// First detecting pattern = lowest set bit.
		k := 0
		for det&1 == 0 {
			det >>= 1
			k++
		}
		e.detectedBy[fi] = baseIndex + k
		e.nDetected++
		newly++
	}
	e.remaining = keep
	return newly
}

// shardDetect computes the detection word of every remaining fault for the
// loaded batch, sharded across the engine's workers. Slot i of the returned
// slice belongs to e.remaining[i] regardless of which worker computed it.
func (e *Engine) shardDetect(mask uint64) []uint64 {
	n := len(e.remaining)
	if cap(e.dets) < n {
		e.dets = make([]uint64, n)
	}
	dets := e.dets[:n]
	evals := e.shardEvals()
	timers := e.workerTimers()
	_ = par.Run(nil, n, e.workers, func(s par.Shard) error {
		ev := evals[s.Worker]
		var start time.Time
		if timers != nil {
			// lintgo:allow GO002 per-worker timing metric, never a result input.
			start = time.Now()
		}
		for i := s.Lo; i < s.Hi; i++ {
			dets[i] = ev.detectWord(e.flist[e.remaining[i]], mask)
		}
		if timers != nil {
			timers[s.Worker].Since(start)
		}
		return nil
	})
	return dets
}

// shardEvals grows the per-worker evaluator pool to the current worker
// bound. Evaluators are reused across batches; each is private to one
// worker slot for the duration of a sharded batch.
func (e *Engine) shardEvals() []*faultEval {
	for len(e.evals) < e.workers {
		e.evals = append(e.evals, newFaultEval(e))
	}
	return e.evals[:e.workers]
}

// workerTimers lazily creates the per-worker busy-time timers. Nil (no
// overhead) unless the engine is instrumented.
func (e *Engine) workerTimers() []*obs.Timer {
	if e.col == nil {
		return nil
	}
	for len(e.tWorkers) < e.workers {
		e.tWorkers = append(e.tWorkers, e.col.Timer(fmt.Sprintf("faultsim.worker.%d", len(e.tWorkers))))
	}
	return e.tWorkers[:e.workers]
}

// detectWord computes the detection word of one fault for the loaded batch:
// bit k set iff pattern k detects the fault at any pseudo output.
func (ev *faultEval) detectWord(f faults.Fault, mask uint64) uint64 {
	return ev.detectWordDetail(f, mask, nil)
}

// detectWordDetail is detectWord with an optional per-output capture:
// when perPPO is non-nil (length = pseudo-output frame), perPPO[i] receives
// the word of patterns failing at output i.
//
// Propagation is event-driven over the compiled Program: the fault is
// injected at its site, the site's combinational fanouts are pushed onto a
// level-bucketed queue, and only gates with a changed fanin are ever
// evaluated, in ascending level order. Because every gate's level is
// strictly greater than all of its fanins' levels, each gate is evaluated
// at most once, after all its changed fanins are final — so the set of
// changed gates (and hence the detection word) is exactly what a full
// topological sweep would compute, at the cost of the fault's cone.
func (ev *faultEval) detectWordDetail(f faults.Fault, mask uint64, perPPO []uint64) uint64 {
	e := ev.e
	p := e.prog
	stuck := uint64(0)
	if f.Stuck == logic.One {
		stuck = ^uint64(0)
	}

	g := e.c.Gate(f.Gate)
	if f.Pin != faults.StemPin && g.Type == netlist.DFF {
		// Branch fault on a DFF data pin: the captured value is stuck;
		// detection is any pattern where the good driver value differs.
		drv := g.Fanin[f.Pin]
		det := (e.good[drv] ^ stuck) & mask
		if perPPO != nil {
			if pos, ok := e.dffPPO[f.Gate]; ok {
				for _, pp := range pos {
					perPPO[pp] = det
				}
			}
		}
		return det
	}

	ev.cur++
	if ev.cur == 0 { // epoch wrapped: reset
		for i := range ev.epoch {
			ev.epoch[i] = 0
			ev.inq[i] = 0
		}
		ev.cur = 1
	}

	site := int32(f.Gate)
	if f.Pin == faults.StemPin {
		ev.fw[site] = stuck
	} else {
		// Branch fault: recompute gate f.Gate with pin forced.
		ev.fw[site] = ev.evalWithPin(site, f.Pin, stuck)
	}
	ev.epoch[site] = ev.cur
	if ev.fw[site] == e.good[site] {
		// The fault never changes the site value for this batch — but a
		// stem stuck fault still differs wherever good != stuck; that IS
		// fw != good. Equal means undetectable in this batch.
		return 0
	}

	var det uint64
	if p.observed[site] {
		det = (ev.fw[site] ^ e.good[site]) & mask
	}
	// Seed the event queue with the site's combinational fanouts. Every
	// fanout's level exceeds the site's, so processing levels upward from
	// there visits each cone gate exactly once.
	maxLvl := p.level[site]
	for _, s := range p.fanouts[p.fanoutOff[site]:p.fanoutOff[site+1]] {
		if ev.inq[s] != ev.cur {
			ev.inq[s] = ev.cur
			l := p.level[s]
			ev.buckets[l] = append(ev.buckets[l], s)
			if l > maxLvl {
				maxLvl = l
			}
		}
	}

	fanins, faninOff := p.fanins, p.faninOff
	for lvl := p.level[site] + 1; lvl <= maxLvl; lvl++ {
		bucket := ev.buckets[lvl]
		ev.buckets[lvl] = bucket[:0]
		for _, id := range bucket {
			off := faninOff[id]
			var v uint64
			switch p.op[id] {
			case pBuf:
				v = ev.val(fanins[off])
			case pAnd2:
				v = ev.val(fanins[off]) & ev.val(fanins[off+1])
			case pOr2:
				v = ev.val(fanins[off]) | ev.val(fanins[off+1])
			case pXor2:
				v = ev.val(fanins[off]) ^ ev.val(fanins[off+1])
			case pAndN:
				v = ^uint64(0)
				for _, fi := range fanins[off:faninOff[id+1]] {
					v &= ev.val(fi)
				}
			case pOrN:
				for _, fi := range fanins[off:faninOff[id+1]] {
					v |= ev.val(fi)
				}
			case pXorN:
				for _, fi := range fanins[off:faninOff[id+1]] {
					v ^= ev.val(fi)
				}
			case pConst:
				// Constants have no fanin; they can never be enqueued.
			}
			v ^= p.inv[id]
			if v == e.good[id] {
				continue
			}
			ev.fw[id] = v
			ev.epoch[id] = ev.cur
			if p.observed[id] {
				det |= (v ^ e.good[id]) & mask
			}
			for _, s := range p.fanouts[p.fanoutOff[id]:p.fanoutOff[id+1]] {
				if ev.inq[s] != ev.cur {
					ev.inq[s] = ev.cur
					l := p.level[s]
					ev.buckets[l] = append(ev.buckets[l], s)
					if l > maxLvl {
						maxLvl = l
					}
				}
			}
		}
	}

	if perPPO != nil {
		// Detail capture: re-derive the detection word per observation
		// position. PseudoOutputs holds driver gates, so a directly
		// observed site is covered by the same comparison.
		det = 0
		for i, id := range e.ppos {
			if ev.epoch[id] == ev.cur {
				d := (ev.fw[id] ^ e.good[id]) & mask
				det |= d
				perPPO[i] = d
			}
		}
	}
	return det & mask
}

// val returns gate id's word under the current fault: the faulty word when
// the gate changed this epoch, the good-circuit word otherwise.
func (ev *faultEval) val(id int32) uint64 {
	if ev.epoch[id] == ev.cur {
		return ev.fw[id]
	}
	return ev.e.good[id]
}

// evalWithPin recomputes gate id with fanin pin forced to the given word
// and all other fanins at their good values.
func (ev *faultEval) evalWithPin(id int32, pin int, forced uint64) uint64 {
	p := ev.e.prog
	off, end := p.faninOff[id], p.faninOff[id+1]
	arity := int(end - off)
	if cap(ev.scratch) < arity {
		ev.scratch = make([]uint64, arity)
	}
	in := ev.scratch[:arity]
	for j, fin := range p.fanins[off:end] {
		if j == pin {
			in[j] = forced
		} else {
			in[j] = ev.e.good[fin]
		}
	}
	return p.evalWords(id, in)
}

// FailingPositions runs the fault against the pattern set and returns, per
// failing pattern index, the pseudo-output positions that miscompare — the
// full-response dictionary column of the fault. It uses the bit-parallel
// engine, so building whole-core dictionaries stays fast.
func FailingPositions(c *netlist.Circuit, patterns []logic.Cube, f faults.Fault) map[int][]int {
	e := NewEngine(c, []faults.Fault{f})
	out := make(map[int][]int)
	perPPO := make([]uint64, len(e.ppos))
	for off := 0; off < len(patterns); off += wordBits {
		end := off + wordBits
		if end > len(patterns) {
			end = len(patterns)
		}
		mask := e.prog.Load(e.good, patterns[off:end])
		e.prog.Run(e.good)
		for i := range perPPO {
			perPPO[i] = 0
		}
		e.ev.detectWordDetail(f, mask, perPPO)
		for i, w := range perPPO {
			for w != 0 {
				k := trailingZeros(w)
				w &^= 1 << uint(k)
				out[off+k] = append(out[off+k], i)
			}
		}
	}
	return out
}

func trailingZeros(x uint64) int {
	n := 0
	for x&1 == 0 {
		x >>= 1
		n++
	}
	return n
}
