// Package faultsim implements stuck-at fault simulation over full-scan
// circuits. The workhorse is a 64-wide PPSFP (parallel-pattern single-fault
// propagation) engine with fault dropping: the netlist is compiled once into
// a levelized evaluation Program, 64 patterns are packed per machine word,
// the good circuit is evaluated in one word-wide pass per batch over the
// live region (the gates the remaining faults can read). Each fault's
// effect is then carried to the root of its fanout-free region by local
// sensitization, and one event-driven propagation per region root, through
// its fanout cone only, serves every fault of the region. Only the pseudo
// inputs the live region reads are packed, and a multi-worker Apply packs
// the next chunk of up to 32 batches on its pool while it simulates the
// current one batch by batch, dropping faults in fault order.
//
// An Engine also keeps a pending batch for callers that produce patterns
// one at a time, like the ATPG loop: Queue sets a cube's bits in the next
// of 64 lanes, QueuedDetects checks one fault against every queued lane, and
// Flush applies the batch with exactly the detection state, first
// detectors included, that one Apply per cube would leave. A Program is
// immutable; NewEngineFor lets one run share a single compilation.
//
// A deliberately independent reference implementation cross-checks the
// kernel, in tests only: the pattern-at-a-time serial engine
// (SerialSimulate/SerialDetects), at any input width, and exhaustively
// over AllPatterns up to 16 inputs.
package faultsim

import (
	"fmt"
	"math/bits"
	"runtime"
	"sort"
	"sync/atomic"
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

// Engine is an incremental fault simulator: patterns are fed in batches via
// Apply (or queued one at a time and flushed), detected faults are
// dropped, and Remaining reports the survivors. ATPG drives an Engine cube
// by cube through its pending batch.
//
// Internally the engine is a 64-wide PPSFP (parallel-pattern single-fault
// propagation) kernel over a compiled Program: the good circuit is evaluated
// once per 64-pattern batch in compiled topological order, over the live
// region only. Each remaining fault's effect word is then walked up its
// fanout-free region to the region's root, and each such root's full flip
// is propagated event-driven through its fanout cone once per batch; a
// fault's detection word is its effect at the root ANDed with the root's.
type Engine struct {
	c    *netlist.Circuit
	prog *Program

	flist      []faults.Fault
	detectedBy []int // parallel to flist
	remaining  []int // indices into flist still undetected
	nDetected  int
	nPatterns  int

	good []uint64 // good-circuit words of the current batch

	// Program.Load's dense words: one batch's, or two chunks' of up to
	// packChunk batches each where a multi-worker Apply packs one chunk
	// while it simulates the other.
	packed []uint64

	// Live region: the gates whose good words detection can read for some
	// remaining fault, closed under fanin (see computeRegion). region lists
	// its combinational gates in topological order, live marks every
	// member, sources included (liveCone where the gate's whole fanout
	// cone is in the region too, liveFanin elsewhere), and stack is the
	// cone walk's scratch. groups has bit g set when pseudo inputs 8g to
	// 8g+7 (in PseudoInputs order) hold a member: the words Load packs.
	// regionStale holds from construction and from each batch that drops a
	// fault until the next batch or Queue recomputes the region before its
	// good pass.
	region      []int32
	live        []uint8
	stack       []int32
	groups      []uint64
	regionStale bool

	// Region-root detection (see detectBatch). Per remaining fault, eff is
	// its effect word at its region root and slot the root's index in
	// roots, or -1 when eff is already the detection word. rootObs is
	// parallel to roots, and slotOf maps a gate to its index in roots (-1
	// for a gate not listed).
	eff     []uint64
	slot    []int32
	roots   []int32
	rootObs []uint64
	slotOf  []int32

	// goodHook, when set (tests only), runs after every batch's good pass.
	goodHook func(*Engine)

	// Parallel detection. workers is the shard bound (1 = strictly serial);
	// ev is the serial evaluator and evals the lazily-grown per-worker
	// pool, which fills index-addressed rootObs slots.
	workers int
	ev      *faultEval
	evals   []*faultEval

	// Observability (all nil by default: zero overhead).
	col       *obs.Collector
	cPatterns *obs.Counter // faultsim.patterns.applied
	cDropped  *obs.Counter // faultsim.faults.dropped
	cBatches  *obs.Counter // faultsim.batches
	cGood     *obs.Counter // faultsim.good.gates: gates the good pass evaluated
	cRoots    *obs.Counter // faultsim.detect.roots: region roots propagated
	tLoad     *obs.Timer   // faultsim.load: Program.Load per batch
	tGood     *obs.Timer   // faultsim.good: good-circuit Program.Run per batch
	tDetect   *obs.Timer   // faultsim.detect: fault propagation and dropping per batch
	tWorkers  []*obs.Timer // faultsim.worker.N busy time (sharded batches)

	// Pending batch (Queue, QueuedDetects, Flush): the cubes queued since
	// the last flush, one lane each, and their good-circuit words. qgood is
	// separate from good so the pending lanes survive any Apply, and qev
	// checks single faults against it. Queue computes qgood over the live
	// region; qfull records that QueuedDetects has since completed it over
	// the full order. qobs[g] is root g's observability word over the
	// pending lanes, valid while qseen[g] == qepoch. Every Queue, Unqueue
	// and Flush clears qfull and moves qepoch on.
	queued []logic.Cube
	qgood  []uint64
	qev    *faultEval
	qfull  bool
	qobs   []uint64
	qseen  []uint32
	qepoch uint32
}

// Marks of Engine.live.
const (
	deadGate  uint8 = iota // outside the live region
	liveFanin              // in the region
	liveCone               // in the region, and so is its whole fanout cone
)

// minShardRoots is the region-root count below which a batch's roots are
// propagated serially even on a multi-worker engine: under this size the
// goroutine fan-out costs more than the root words it spreads out.
// The threshold never affects results, only wall-clock. A variable so the
// determinism tests can force tiny circuits through the sharded path.
var minShardRoots = 128

// faultEval holds the per-goroutine scratch state of fault propagation:
// the epoch-validated faulty words over the good-circuit words of the
// engine's current batch, plus the level-bucketed event queue that drives
// propagation through a region root's fanout cone. Each worker owns one
// evaluator, so sharded detection touches no shared mutable state.
type faultEval struct {
	e       *Engine
	good    []uint64 // good-circuit words the fault is propagated over
	fw      []uint64 // faulty words (epoch-validated)
	epoch   []uint32 // fw[g] valid iff epoch[g] == cur
	inq     []uint32 // g enqueued this fault iff inq[g] == cur
	cur     uint32
	buckets [][]int32 // per-level event queue, reused across faults
	scratch []uint64
}

func newFaultEval(e *Engine, good []uint64) *faultEval {
	return &faultEval{
		e:       e,
		good:    good,
		fw:      make([]uint64, e.c.NumGates()),
		epoch:   make([]uint32, e.c.NumGates()),
		inq:     make([]uint32, e.c.NumGates()),
		buckets: make([][]int32, e.prog.NumLevels()),
	}
}

// NewEngine returns an engine over the given collapsed fault list,
// compiling the circuit for it.
func NewEngine(c *netlist.Circuit, flist []faults.Fault) *Engine {
	if !c.Finalized() {
		panic("faultsim: circuit not finalized")
	}
	return NewEngineFor(Compile(c), flist)
}

// NewEngineFor returns an engine over the given fault list that runs on an
// already compiled Program. A Program is immutable, so any number of
// engines (and PODEM searches) may share one: compile once per run.
func NewEngineFor(prog *Program, flist []faults.Fault) *Engine {
	c := prog.Circuit()
	n := c.NumGates()
	e := &Engine{
		c:           c,
		prog:        prog,
		flist:       flist,
		detectedBy:  make([]int, len(flist)),
		good:        make([]uint64, n),
		packed:      make([]uint64, len(prog.ppis)),
		regionStale: true,
		eff:         make([]uint64, len(flist)),
		slot:        make([]int32, len(flist)),
		roots:       make([]int32, 0, min(len(flist), n)),
		rootObs:     make([]uint64, 0, min(len(flist), n)),
		slotOf:      make([]int32, n),
		remaining:   make([]int, len(flist)),
		workers:     1,
	}
	for i := range e.slotOf {
		e.slotOf[i] = -1
	}
	e.ev = newFaultEval(e, e.good)
	for i := range e.detectedBy {
		e.detectedBy[i], e.remaining[i] = Undetected, i
	}
	return e
}

// Instrument attaches an observability collector: per-batch counters
// (patterns applied, faults dropped, batches simulated, gates the good
// pass evaluated, region roots propagated by batches and QueuedDetects),
// timers for the packing the simulation waits for (faultsim.load: per
// batch, with the live region's recompute, or per chunk packed ahead, as
// the caller's wait for it), the good-circuit pass (faultsim.good)
// and fault propagation (faultsim.detect) per batch, and, when the
// collector traces, a "faultsim.batch" event per 64-pattern batch
// carrying the running coverage-vs-pattern curve. A nil collector is a
// no-op.
func (e *Engine) Instrument(col *obs.Collector) {
	if col == nil {
		return
	}
	e.col = col
	e.cPatterns = col.Counter("faultsim.patterns.applied")
	e.cDropped = col.Counter("faultsim.faults.dropped")
	e.cBatches = col.Counter("faultsim.batches")
	e.cGood = col.Counter("faultsim.good.gates")
	e.cRoots = col.Counter("faultsim.detect.roots")
	e.tLoad = col.Timer("faultsim.load")
	e.tGood = col.Timer("faultsim.good")
	e.tDetect = col.Timer("faultsim.detect")
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

// packChunk is the number of batches a multi-worker Apply packs ahead.
const packChunk = 32

// Apply fault-simulates the given patterns (any count; they are batched 64
// at a time) and returns how many previously-undetected faults they detect.
// Patterns with X bits are simulated with X loaded as 0, matching the
// deterministic X-fill convention of the ATPG.
// Only the groups of pseudo inputs the live region reads are packed. When
// more than one CPU runs, a multi-worker engine packs each chunk of up to
// packChunk batches while it simulates the one before (see packAhead);
// otherwise each batch is packed as it is applied. Either way the batches
// are simulated in order, and no packing starts once no fault remains.
func (e *Engine) Apply(patterns []logic.Cube) int {
	var turn func(k int) []uint64
	if e.workers > 1 && len(patterns) > wordBits && len(e.remaining) > 0 && runtime.GOMAXPROCS(0) > 1 {
		var stop func()
		turn, stop = e.packAhead(patterns)
		defer stop()
	}
	newly, n, size := 0, len(e.prog.ppis), packChunk*wordBits
	var chunk []uint64
	for off := 0; off < len(patterns); off += wordBits {
		if turn != nil && off%size == 0 {
			chunk = turn(off / size)
		}
		var dense []uint64
		if chunk != nil {
			dense = chunk[off%size/wordBits*n:][:n]
		}
		end := min(off+wordBits, len(patterns))
		dropped := e.applyBatch(patterns[off:end], dense, e.nPatterns+off)
		newly += dropped
		e.cPatterns.Add(int64(end - off))
		e.cDropped.Add(int64(dropped))
		e.cBatches.Inc()
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
	return newly
}

// packAhead starts a pool goroutine that packs the patterns of a
// multi-worker Apply one chunk ahead, into alternate halves of e.packed and
// over a copy of the live groups, on chunk 0 first. turn(k), called once
// chunk k-1 is simulated, helps pack chunk k, waits for it, starts chunk
// k+1 unless no fault remains, and returns chunk k's words. The region only
// shrinks, so groups taken before chunk k's drops cover every word chunk
// k+1 reads. A chunk that will not be simulated is left unfinished; stop
// returns once the goroutine has.
func (e *Engine) packAhead(patterns []logic.Cube) (turn func(k int) []uint64, stop func()) {
	n, size := len(e.prog.ppis), packChunk*wordBits
	if need := min((len(patterns)+size-1)/size, 2) * packChunk * n; len(e.packed) < need {
		e.packed = make([]uint64, need)
	}
	if e.regionStale {
		e.computeRegion()
	}
	// flight is the chunk last started, next its first unclaimed batch and
	// groups the live groups it packs.
	var flight int
	var next atomic.Int64
	groups := make([]uint64, len(e.groups))
	pack := func() {
		c, dst := patterns[flight*size:min(flight*size+size, len(patterns))], e.packed[flight%2*packChunk*n:]
		for b := int(next.Add(1) - 1); b*wordBits < len(c); b = int(next.Add(1) - 1) {
			e.prog.Load(dst[b*n:], groups, c[b*wordBits:min(b*wordBits+wordBits, len(c))])
		}
	}
	req, done := make(chan struct{}), make(chan bool, 1)
	pool := par.StartPool(1, func(int) {
		defer close(done)
		for range req {
			pack()
			done <- true
		}
	})
	start := func(k int) {
		flight = k
		copy(groups, e.groups)
		next.Store(0)
		req <- struct{}{}
	}
	start(0)
	turn = func(k int) []uint64 {
		if flight == k {
			var clock time.Time
			if len(e.remaining) > 0 { // help with, and time, a chunk to simulate
				lap(e.tLoad, &clock)
				pack()
			} else { // claim what is left of one that will not be
				next.Store(packChunk)
			}
			if !<-done {
				pool.Wait() // re-raises the packer's panic
			}
			lap(e.tLoad, &clock) // observes only once the clock has started
		}
		if (k+1)*size < len(patterns) && len(e.remaining) > 0 {
			start(k + 1)
		}
		return e.packed[k%2*packChunk*n:]
	}
	return turn, func() {
		close(req)
		pool.Wait()
	}
}

// applyBatch simulates batch, the first pattern at index baseIndex, from
// its dense pseudo-input words if Apply packed them ahead (else nil).
func (e *Engine) applyBatch(batch []logic.Cube, dense []uint64, baseIndex int) int {
	if len(e.remaining) == 0 {
		return 0
	}
	var clock time.Time
	lap(e.tLoad, &clock) // starts the clock on an instrumented engine
	if e.regionStale {
		e.computeRegion()
	}
	if dense == nil {
		dense = e.packed[:len(e.prog.ppis)]
		e.prog.Load(dense, e.groups, batch)
		lap(e.tLoad, &clock)
	}
	for i, id := range e.prog.ppis {
		e.good[id] = dense[i]
	}
	mask := laneMask(len(batch))
	e.prog.Run(e.good, e.region)
	e.cGood.Add(int64(len(e.region)))
	if e.goodHook != nil {
		e.goodHook(e)
	}
	lap(e.tGood, &clock)

	// The drop/first-detection merge is serial and in fault order, and
	// the root words it reads do not depend on which worker computed them,
	// so every worker count is bit-identical.
	e.detectBatch()
	newly := 0
	keep := e.remaining[:0]
	for i, fi := range e.remaining {
		det := e.detection(i, mask)
		if det == 0 {
			keep = append(keep, fi)
			continue
		}
		// First detecting pattern = lowest set bit.
		e.detectedBy[fi] = baseIndex + bits.TrailingZeros64(det)
		e.nDetected++
		newly++
	}
	e.remaining = keep
	e.regionStale = newly > 0
	lap(e.tDetect, &clock)
	return newly
}

// detectBatch prepares the detection words of the remaining faults for the
// loaded batch. First, serially and in fault order, it computes each
// fault's effect word at its region root (see faultEval.effect) and lists
// every root some fault flips in some lane, once, in first-seen order.
// Then it propagates each listed root's full flip through the root's
// fanout cone, sharded over the root list when there are enough roots.
func (e *Engine) detectBatch() {
	for _, r := range e.roots {
		e.slotOf[r] = -1
	}
	e.roots = e.roots[:0]
	for i, fi := range e.remaining {
		root, d := e.ev.effect(e.flist[fi])
		e.eff[i], e.slot[i] = d, -1
		if root < 0 || d == 0 {
			continue
		}
		if e.slotOf[root] < 0 {
			e.slotOf[root] = int32(len(e.roots))
			e.roots = append(e.roots, root)
		}
		e.slot[i] = e.slotOf[root]
	}
	e.rootObs = e.rootObs[:len(e.roots)]
	if e.workers > 1 && len(e.roots) >= minShardRoots {
		e.shardRoots()
	} else {
		for k, r := range e.roots {
			e.rootObs[k] = e.ev.observe(r)
		}
	}
	e.cRoots.Add(int64(len(e.roots)))
}

// detection returns the detection word of remaining fault i once
// detectBatch has run: bit k set iff pattern k detects it at some pseudo
// output. In each lane the fault flips its region root exactly where its
// effect word is set, and nothing else, so it is detected exactly where
// that flip is.
func (e *Engine) detection(i int, mask uint64) uint64 {
	det := e.eff[i] & mask
	if s := e.slot[i]; s >= 0 {
		det &= e.rootObs[s]
	}
	return det
}

// computeRegion recomputes the live region from the remaining faults in
// O(gates + edges). It is exactly the set of good words detection reads,
// closed under fanin so the good pass can compute them:
//
//  1. the cone: each fault site and its combinational fanout, which holds
//     the site's region and its root's cone, whose good words a root's
//     propagation compares its faulty words against;
//  2. the driver of each faulted DFF data pin, the one word such a fault
//     reads;
//  3. every fanin of a live gate: effect reads the site's fanins
//     (evalWithPin) and the side inputs along the region, propagation a
//     cone gate's fanins where the flip has not changed them, and the good
//     pass needs every live gate's fanins to compute it.
//
// Faults only ever leave the remaining list, so a region computed before
// a drop stays a superset of the one after it. The scratch is allocated on
// the first call, at its largest size, so later calls allocate nothing.
func (e *Engine) computeRegion() {
	p := e.prog
	if e.live == nil {
		n := e.c.NumGates()
		e.live, e.stack, e.region = make([]uint8, n), make([]int32, 0, n), make([]int32, 0, len(p.order))
		e.groups = make([]uint64, logic.Words((len(p.ppis)+7)/8))
	}
	live, stack := e.live, e.stack[:0]
	clear(live)
	for _, fi := range e.remaining {
		f := e.flist[fi]
		if drv := p.pinDriver(f); drv >= 0 {
			live[drv] = max(live[drv], liveFanin)
		} else if live[f.Gate] != liveCone {
			live[f.Gate] = liveCone
			stack = append(stack, int32(f.Gate))
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range p.fanouts[p.fanoutOff[id]:p.fanoutOff[id+1]] {
			if live[s] != liveCone {
				live[s] = liveCone
				stack = append(stack, s)
			}
		}
	}
	// Fanins precede their gate in the topological order, so one reverse
	// pass closes the region under fanin. The order holds only
	// combinational gates: the walk ends at sources, whose words Load sets.
	for i := len(p.order) - 1; i >= 0; i-- {
		if id := p.order[i]; live[id] != deadGate {
			for _, f := range p.fanins[p.faninOff[id]:p.faninOff[id+1]] {
				live[f] = max(live[f], liveFanin)
			}
		}
	}
	e.region = e.region[:0]
	for _, id := range p.order {
		if live[id] != deadGate {
			e.region = append(e.region, id)
		}
	}
	clear(e.groups)
	for i, id := range p.ppis {
		if live[id] != deadGate {
			e.groups[i>>9] |= 1 << uint(i>>3&63)
		}
	}
	e.stack = stack
	e.regionStale = false
}

// lap observes on t the time since *clock (unless *clock is zero, which
// starts the first lap) and moves *clock to now. A nil timer, as on an
// uninstrumented engine, reads no clock.
func lap(t *obs.Timer, clock *time.Time) {
	if t == nil {
		return
	}
	// lintgo:allow GO002 per-layer timing metric, never a result input.
	now := time.Now()
	if !clock.IsZero() {
		t.Observe(now.Sub(*clock))
	}
	*clock = now
}

// Queue adds one cube to the pending batch and returns its lane: the bit
// of QueuedDetects that answers for it. The cube's source bits (X as 0, as
// in Apply) are ORed into the pending good words and the good circuit is
// re-evaluated once over the live region (recomputed first if stale); no
// fault is simulated and nothing is dropped until Flush. At most 64 cubes
// can be pending.
func (e *Engine) Queue(cube logic.Cube) int {
	lane := len(e.queued)
	if lane == wordBits {
		panic("faultsim: Queue on a full pending batch")
	}
	if len(cube) != len(e.prog.ppis) {
		panic(fmt.Sprintf("faultsim: queued cube length %d != %d pseudo inputs", len(cube), len(e.prog.ppis)))
	}
	if e.qgood == nil {
		n := len(e.good)
		e.qgood, e.qobs, e.qseen = make([]uint64, n), make([]uint64, n), make([]uint32, n)
		e.qev = newFaultEval(e, e.qgood)
	}
	e.flipLane(lane, cube) // the lane's source bits are clear: this sets them
	if e.regionStale {
		e.computeRegion()
	}
	e.prog.Run(e.qgood, e.region)
	e.queued = append(e.queued, cube)
	e.pendingChanged()
	return lane
}

// pendingChanged forgets what QueuedDetects derived from the previous
// pending lanes: the root words it cached and its full-order pass.
func (e *Engine) pendingChanged() {
	e.qfull = false
	if e.qepoch++; e.qepoch == 0 { // epoch wrapped: reset
		clear(e.qseen)
		e.qepoch = 1
	}
}

// Unqueue withdraws the most recently queued cube, freeing its lane for
// the next Queue.
func (e *Engine) Unqueue() {
	lane := len(e.queued) - 1
	if lane < 0 {
		panic("faultsim: Unqueue on an empty pending batch")
	}
	// Only the source bits need clearing: the lane is outside every
	// QueuedDetects mask until the next Queue re-runs the circuit. They
	// are exactly the bits Queue set, so flipping them again clears them.
	e.flipLane(lane, e.queued[lane])
	e.queued = e.queued[:lane]
	e.pendingChanged()
}

// flipLane flips lane's bit in the pending word of every pseudo input
// that cube loads as 1, read from its packed one words.
func (e *Engine) flipLane(lane int, cube logic.Cube) {
	for k := 0; k < logic.Words(len(cube)); k++ {
		for m := cube.OneWord(k); m != 0; m &= m - 1 {
			i := k*64 + logic.BitIndex(bits.TrailingZeros64(m))
			e.qgood[e.prog.ppis[i]] ^= 1 << uint(lane)
		}
	}
}

// Pending returns the number of queued cubes.
func (e *Engine) Pending() int { return len(e.queued) }

// QueuedDetects returns the detection word of fault f over the pending
// batch: bit k is set iff the cube in lane k detects f. f need not be in
// the engine's fault list, and the engine's detection state is untouched.
// A fault that reads good words outside the live region, such as one the
// engine has dropped or does not list, first has the pending lanes
// evaluated over the full order, once per pending state. Root words are
// computed once per pending state and shared by every fault of the region.
func (e *Engine) QueuedDetects(f faults.Fault) uint64 {
	if len(e.queued) == 0 {
		return 0
	}
	mask := laneMask(len(e.queued))
	if !e.qfull && !e.inRegion(f) {
		e.prog.Run(e.qgood, e.prog.order)
		e.qfull = true
	}
	root, d := e.qev.effect(f)
	if root >= 0 && d != 0 {
		if e.qseen[root] != e.qepoch {
			e.qseen[root] = e.qepoch
			e.qobs[root] = e.qev.observe(root)
			e.cRoots.Inc()
		}
		d &= e.qobs[root]
	}
	return d & mask
}

// inRegion reports whether every good word f's detection reads lies in
// the live region: the driver of a faulted DFF data pin, or else the
// fault site's whole fanout cone and its fanins.
func (e *Engine) inRegion(f faults.Fault) bool {
	if drv := e.prog.pinDriver(f); drv >= 0 {
		return e.live[drv] != deadGate
	}
	return e.live[f.Gate] == liveCone
}

// Flush applies the pending batch — Apply over the queued cubes, in lane
// order, at pattern indices NumPatterns() onwards — and empties it. The
// detection state afterwards, first detectors included, is exactly that
// of applying each cube with its own Apply call as it was queued; only
// the batch count differs. It returns the newly detected fault count.
func (e *Engine) Flush() int {
	if len(e.queued) == 0 {
		return 0
	}
	n := e.Apply(e.queued)
	e.queued = e.queued[:0]
	clear(e.qgood)
	e.pendingChanged()
	return n
}

// NextRemaining returns the lowest fault-list index at or after from whose
// fault no applied pattern detects yet, or -1. Queued cubes do not count
// until they are flushed. The remaining list stays in fault-list order, so
// this is a binary search.
func (e *Engine) NextRemaining(from int) int {
	k := sort.SearchInts(e.remaining, from)
	if k == len(e.remaining) {
		return -1
	}
	return e.remaining[k]
}

// shardRoots fills rootObs for the batch's root list, sharded across the
// engine's workers. Slot k belongs to roots[k] regardless of which worker
// computed it. Worker w takes every workers-th root from w on: roots met
// early lie near the inputs and have the widest cones, so contiguous
// ranges would load the first worker most.
func (e *Engine) shardRoots() {
	evals := e.shardEvals()
	timers := e.workerTimers()
	workers := min(e.workers, len(e.roots))
	_ = par.Run(nil, workers, workers, func(s par.Shard) error {
		ev := evals[s.Worker]
		var start time.Time
		if timers != nil {
			// lintgo:allow GO002 per-worker timing metric, never a result input.
			start = time.Now()
		}
		for k := s.Worker; k < len(e.roots); k += workers {
			e.rootObs[k] = ev.observe(e.roots[k])
		}
		if timers != nil {
			timers[s.Worker].Since(start)
		}
		return nil
	})
}

// shardEvals grows the per-worker evaluator pool to the current worker
// bound. Evaluators are reused across batches; each is private to one
// worker slot for the duration of a sharded batch.
func (e *Engine) shardEvals() []*faultEval {
	for len(e.evals) < e.workers {
		e.evals = append(e.evals, newFaultEval(e, e.good))
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

// pinDriver returns the driver of f's pin when f is a fault on a DFF data
// pin, and -1 for every other fault. Such a fault only changes the value
// the DFF captures, so it is detected wherever that driver's good word
// differs from the stuck value.
func (p *Program) pinDriver(f faults.Fault) int32 {
	site := int32(f.Gate)
	if f.Pin == faults.StemPin || p.op[site] != pSource {
		return -1
	}
	return p.fanins[p.faninOff[site]+int32(f.Pin)]
}

// effect returns the root of fault f's fanout-free region and the lanes in
// which f flips that root. The word starts as the fault's effect at its
// site and is ANDed, at each step up the region, with the successor's
// sensitization of the pin the step enters (Program.sensitize). Every gate
// below the root has exactly one fanout edge and feeds no pseudo output,
// so in each lane the fault reaches the rest of the circuit only through
// the root, and flips it exactly where the word is set. For a fault on a
// DFF data pin root is -1 and the word is already its detection word.
func (ev *faultEval) effect(f faults.Fault) (root int32, d uint64) {
	p := ev.e.prog
	stuck := uint64(0)
	if f.Stuck == logic.One {
		stuck = ^uint64(0)
	}
	if drv := p.pinDriver(f); drv >= 0 {
		return -1, ev.good[drv] ^ stuck
	}
	site := int32(f.Gate)
	if f.Pin == faults.StemPin {
		d = stuck ^ ev.good[site]
	} else {
		// Branch fault: recompute gate f.Gate with pin forced.
		d = ev.evalWithPin(site, f.Pin, stuck) ^ ev.good[site]
	}
	for d != 0 && p.succ[site] >= 0 {
		d &= p.sensitize(ev.good, p.succ[site], p.succPin[site])
		site = p.succ[site]
	}
	return site, d
}

// observe returns the observability word of gate root for the loaded
// batch: bit k set iff flipping root in pattern k changes some pseudo
// output.
func (ev *faultEval) observe(root int32) uint64 {
	return ev.propagate(root, ^ev.good[root])
}

// propagate returns the lanes in which the faulty word fw at site changes
// some pseudo output, all other gates starting at their good words.
//
// Propagation is event-driven over the compiled Program: the site's
// combinational fanouts are pushed onto a level-bucketed queue, and only
// gates with a changed fanin are ever evaluated, in ascending level
// order. Because every gate's level is strictly greater than all of its
// fanins' levels, each gate is evaluated at most once, after all its
// changed fanins are final — so the set of changed gates (and hence the
// detection word) is exactly what a full topological sweep would compute,
// at the cost of the site's cone.
func (ev *faultEval) propagate(site int32, fw uint64) uint64 {
	p := ev.e.prog
	if fw == ev.good[site] {
		return 0
	}
	ev.cur++
	if ev.cur == 0 { // epoch wrapped: reset
		for i := range ev.epoch {
			ev.epoch[i] = 0
			ev.inq[i] = 0
		}
		ev.cur = 1
	}
	ev.fw[site] = fw
	ev.epoch[site] = ev.cur

	var det uint64
	if p.observed[site] {
		det = fw ^ ev.good[site]
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
			if v == ev.good[id] {
				continue
			}
			ev.fw[id] = v
			ev.epoch[id] = ev.cur
			if p.observed[id] {
				det |= v ^ ev.good[id]
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

	return det
}

// val returns gate id's word under the current fault: the faulty word when
// the gate changed this epoch, the good-circuit word otherwise.
func (ev *faultEval) val(id int32) uint64 {
	if ev.epoch[id] == ev.cur {
		return ev.fw[id]
	}
	return ev.good[id]
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
			in[j] = ev.good[fin]
		}
	}
	return p.evalWords(id, in)
}
