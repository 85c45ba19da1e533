package faultsim

import (
	"fmt"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// This file compiles a finalized netlist into a Program: a flat,
// topologically ordered evaluation form that the PPSFP kernel runs over.
// Compilation happens once per Engine; every per-pattern-batch and per-fault
// cost after that is array walks over int32 indices — no map lookups, no
// Gate pointer chasing, no per-gate scratch refills.

// pOp is a compiled gate opcode: a gate's base function (netlist.Func),
// with its output inversion kept as a word — three word-wide reductions
// (AND, OR, XOR) plus buffer, constant and source forms. Arity-2 gates
// (the overwhelming majority in ISCAS-style netlists) get dedicated
// opcodes so the hot loops read both fanins without bounds-checked slice
// iteration; the N-ary opcodes follow them in the same order.
type pOp uint8

const (
	pSource pOp = iota // Input or DFF output: a value source, never evaluated
	pBuf               // 1 fanin: out = in ^ inv (NOT is pBuf with inv = ^0)
	pAnd2              // 2 fanin AND ^ inv (NAND: inv = ^0)
	pOr2               // 2 fanin OR ^ inv (NOR: inv = ^0)
	pXor2              // 2 fanin XOR ^ inv (XNOR: inv = ^0)
	pAndN              // N fanin AND ^ inv
	pOrN               // N fanin OR ^ inv
	pXorN              // N fanin XOR ^ inv
	pConst             // 0 fanin: out = inv (CONST0: 0, CONST1: ^0)
)

// compileOp maps a gate type and arity to its opcode and inversion word:
// the base function picks the opcode, and arity 2 the reductions' fast
// path.
func compileOp(t netlist.GateType, arity int) (pOp, uint64) {
	var inv uint64
	if t.Inverted() {
		inv = ^uint64(0)
	}
	var op pOp
	switch t.Func() {
	case netlist.FuncSource:
		return pSource, 0
	case netlist.FuncBuf:
		return pBuf, inv
	case netlist.FuncConst:
		return pConst, inv
	case netlist.FuncAnd:
		op = pAnd2
	case netlist.FuncOr:
		op = pOr2
	case netlist.FuncXor:
		op = pXor2
	}
	if arity != 2 {
		op += pAndN - pAnd2 // the N-ary form of the same reduction
	}
	return op, inv
}

// Program is the compiled, levelized evaluation form of a circuit: per-gate
// opcodes and inversion words, flat fanin and combinational-fanout
// adjacency (CSR layout), combinational levels, the topological evaluation
// order, and the observability flags of the pseudo-output frame. A Program
// is immutable after Compile and safe for concurrent readers; the PPSFP
// kernel's mutable per-fault state lives in faultEval, one per worker.
type Program struct {
	c *netlist.Circuit

	op  []pOp    // per gate
	inv []uint64 // per gate output inversion word

	faninOff []int32 // len NumGates+1; fanins[faninOff[g]:faninOff[g+1]]
	fanins   []int32

	// Combinational fanout adjacency. Edges into DFF data pins are cut —
	// they are observation boundaries, not propagation paths — exactly
	// mirroring the netlist levelization.
	fanoutOff []int32
	fanouts   []int32

	level    []int32 // combinational level; sources are 0
	order    []int32 // combinational gates in topological order
	observed []bool  // gate drives >= 1 pseudo-output frame position
	maxLevel int32

	// Fanout-free regions. succ[g] is the one gate g feeds when g has
	// exactly one combinational fanout edge and drives no pseudo output,
	// and -1 otherwise: g is then a region root. succPin[g] is the fanin
	// pin g drives on succ[g]. A driver wired to two pins of one gate has
	// two edges, so it is a root.
	succ    []int32
	succPin []int32

	ppis []netlist.GateID
	ppos []netlist.GateID
}

// Compile levelizes the finalized circuit into a Program. It panics on a
// non-finalized circuit, matching NewEngine.
func Compile(c *netlist.Circuit) *Program {
	if !c.Finalized() {
		panic("faultsim: Compile on non-finalized circuit")
	}
	n := c.NumGates()
	p := &Program{
		c:        c,
		op:       make([]pOp, n),
		inv:      make([]uint64, n),
		level:    make([]int32, n),
		observed: make([]bool, n),
		ppis:     c.PseudoInputs(),
		ppos:     c.PseudoOutputs(),
	}

	// Opcodes, levels and fanin CSR.
	p.faninOff = make([]int32, n+1)
	for id := 0; id < n; id++ {
		g := c.Gate(netlist.GateID(id))
		p.op[id], p.inv[id] = compileOp(g.Type, len(g.Fanin))
		p.level[id] = int32(c.Level(g.ID))
		if p.level[id] > p.maxLevel {
			p.maxLevel = p.level[id]
		}
		p.faninOff[id+1] = p.faninOff[id] + int32(len(g.Fanin))
	}
	p.fanins = make([]int32, p.faninOff[n])
	for id := 0; id < n; id++ {
		off := p.faninOff[id]
		for j, f := range c.Gate(netlist.GateID(id)).Fanin {
			p.fanins[off+int32(j)] = int32(f)
		}
	}

	// Combinational fanout CSR: count, prefix-sum, fill. Consumers that are
	// DFFs (or, degenerately, Inputs) are skipped.
	counts := make([]int32, n)
	for id := 0; id < n; id++ {
		if p.op[id] == pSource {
			continue
		}
		for _, f := range c.Gate(netlist.GateID(id)).Fanin {
			counts[f]++
		}
	}
	p.fanoutOff = make([]int32, n+1)
	for id := 0; id < n; id++ {
		p.fanoutOff[id+1] = p.fanoutOff[id] + counts[id]
	}
	p.fanouts = make([]int32, p.fanoutOff[n])
	fill := make([]int32, n)
	for id := 0; id < n; id++ {
		if p.op[id] == pSource {
			continue
		}
		for _, f := range c.Gate(netlist.GateID(id)).Fanin {
			p.fanouts[p.fanoutOff[f]+fill[f]] = int32(id)
			fill[f]++
		}
	}

	order := c.TopoOrder()
	p.order = make([]int32, len(order))
	for i, id := range order {
		p.order[i] = int32(id)
	}
	for _, id := range p.ppos {
		p.observed[id] = true
	}

	p.succ, p.succPin = make([]int32, n), make([]int32, n)
	for id := 0; id < n; id++ {
		p.succ[id] = -1
		if off := p.fanoutOff[id]; p.fanoutOff[id+1]-off == 1 && !p.observed[id] {
			s := p.fanouts[off]
			for j, f := range p.fanins[p.faninOff[s]:p.faninOff[s+1]] {
				if f == int32(id) {
					p.succ[id], p.succPin[id] = s, int32(j)
				}
			}
		}
	}
	return p
}

// Circuit returns the circuit the program was compiled from.
func (p *Program) Circuit() *netlist.Circuit { return p.c }

// Load packs up to 64 stimulus cubes into dense pseudo-input words (one
// bit per pattern, X loaded as 0 — the engine's deterministic X-fill
// convention) and returns the mask covering the valid pattern bits. Word i
// of dst belongs to pseudo input i, in PseudoInputs order. Load writes the
// words of the groups of eight pseudo inputs that groups selects (see
// logic.PackLanes; nil selects all) and nothing else, and touches no
// shared state, so goroutines with their own dst may pack batches of one
// Program at once.
func (p *Program) Load(dst, groups []uint64, batch []logic.Cube) uint64 {
	if len(batch) == 0 || len(batch) > 64 {
		panic(fmt.Sprintf("faultsim: Program.Load batch size %d out of range 1..64", len(batch)))
	}
	for k, cube := range batch {
		if len(cube) != len(p.ppis) {
			panic(fmt.Sprintf("faultsim: pattern %d length %d != %d pseudo inputs", k, len(cube), len(p.ppis)))
		}
	}
	logic.PackLanes(dst[:len(p.ppis)], batch, groups)
	return laneMask(len(batch))
}

// laneMask returns the mask of the first n of a batch's 64 lanes.
func laneMask(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<uint(n) - 1
}

// Run evaluates the combinational gates of order, a topological sub-order
// of Order, over the loaded value words. This is the good-circuit half of
// a PPSFP batch: one pass computes all 64 patterns' values for every gate
// of order. Each gate reads only its fanins' words, so a gate outside
// order keeps whatever word it held; the caller passes an order closed
// under fanin (Order itself, or an engine's live region).
func (p *Program) Run(words []uint64, order []int32) {
	fanins, faninOff := p.fanins, p.faninOff
	for _, id := range order {
		off := faninOff[id]
		var v uint64
		switch p.op[id] {
		case pBuf:
			v = words[fanins[off]]
		case pAnd2:
			v = words[fanins[off]] & words[fanins[off+1]]
		case pOr2:
			v = words[fanins[off]] | words[fanins[off+1]]
		case pXor2:
			v = words[fanins[off]] ^ words[fanins[off+1]]
		case pAndN:
			v = ^uint64(0)
			for _, f := range fanins[off:faninOff[id+1]] {
				v &= words[f]
			}
		case pOrN:
			for _, f := range fanins[off:faninOff[id+1]] {
				v |= words[f]
			}
		case pXorN:
			for _, f := range fanins[off:faninOff[id+1]] {
				v ^= words[f]
			}
		case pConst:
			// v stays 0; inv supplies CONST1.
		default:
			panic(fmt.Sprintf("faultsim: Run hit source gate %d in topo order", id))
		}
		words[id] = v ^ p.inv[id]
	}
}

// evalWords evaluates the single gate id over explicitly supplied fanin
// value words (len = the gate's arity). Used for fault injection on a
// branch: one gate recomputed with one pin forced. It panics on source
// gates — a branch fault on an Input is meaningless and one on a DFF data
// pin is handled by the kernel before evaluation.
func (p *Program) evalWords(id int32, in []uint64) uint64 {
	var v uint64
	switch p.op[id] {
	case pBuf:
		v = in[0]
	case pAnd2:
		v = in[0] & in[1]
	case pOr2:
		v = in[0] | in[1]
	case pXor2:
		v = in[0] ^ in[1]
	case pAndN:
		v = ^uint64(0)
		for _, w := range in {
			v &= w
		}
	case pOrN:
		for _, w := range in {
			v |= w
		}
	case pXorN:
		for _, w := range in {
			v ^= w
		}
	case pConst:
	default:
		panic(fmt.Sprintf("faultsim: branch fault evaluation on non-combinational gate %v", p.c.Gate(netlist.GateID(id)).Type))
	}
	return v ^ p.inv[id]
}

// sensitize returns the lanes in which a flip on fanin pin of gate id
// flips the gate's output, given the good words of its other fanins: the
// other fanins' AND for AND gates, the complement of their OR for OR
// gates, and every lane for buffers, inverters and XOR gates. Constants
// have no fanin, so no region leads into one.
func (p *Program) sensitize(words []uint64, id, pin int32) uint64 {
	off := p.faninOff[id]
	switch p.op[id] {
	case pAnd2:
		return words[p.fanins[off+1-pin]]
	case pOr2:
		return ^words[p.fanins[off+1-pin]]
	case pAndN:
		v := ^uint64(0)
		for j, f := range p.fanins[off:p.faninOff[id+1]] {
			if int32(j) != pin {
				v &= words[f]
			}
		}
		return v
	case pOrN:
		var v uint64
		for j, f := range p.fanins[off:p.faninOff[id+1]] {
			if int32(j) != pin {
				v |= words[f]
			}
		}
		return ^v
	}
	return ^uint64(0)
}

// NumLevels returns the number of distinct combinational levels
// (maxLevel + 1); the kernel sizes its per-level event buckets with it.
func (p *Program) NumLevels() int { return int(p.maxLevel) + 1 }
