package faultsim

import (
	"fmt"

	"repro/internal/netlist"
)

// This file is the read-only introspection surface of a compiled Program:
// exactly what the kernel will evaluate, decoded from the compiled arrays
// alone (opcodes, inversion words, fanin CSR, evaluation order) — never
// from the source netlist. The SAT-based equivalence check in internal/sat
// encodes a Program through this surface, so a compiler bug that corrupts
// the compiled form cannot hide behind a netlist-derived re-encoding.

// GateSpec describes one compiled gate exactly as the kernel evaluates it:
// base function, whether the output word is inverted, and the fanin gate
// ids in evaluation order. The arity-2 fast-path opcodes and their N-ary
// forms decode to the same base function. Fanin aliases the Program's
// internal storage; callers must not modify it.
type GateSpec struct {
	Kind   netlist.Func
	Invert bool
	Fanin  []int32
}

// Spec decodes the compiled form of gate id. It panics when the inversion
// word is neither all-zeros nor all-ones — Compile only ever emits those
// two, so anything else means the Program bytes are corrupt and no decode
// is faithful.
func (p *Program) Spec(id int32) GateSpec {
	var kind netlist.Func
	switch p.op[id] {
	case pSource:
		kind = netlist.FuncSource
	case pBuf:
		kind = netlist.FuncBuf
	case pAnd2, pAndN:
		kind = netlist.FuncAnd
	case pOr2, pOrN:
		kind = netlist.FuncOr
	case pXor2, pXorN:
		kind = netlist.FuncXor
	case pConst:
		kind = netlist.FuncConst
	default:
		panic(fmt.Sprintf("faultsim: Spec of unknown opcode %d on gate %d", p.op[id], id))
	}
	var invert bool
	switch p.inv[id] {
	case 0:
		invert = false
	case ^uint64(0):
		invert = true
	default:
		panic(fmt.Sprintf("faultsim: gate %d has non-uniform inversion word %#x", id, p.inv[id]))
	}
	return GateSpec{Kind: kind, Invert: invert, Fanin: p.fanins[p.faninOff[id]:p.faninOff[id+1]]}
}

// NumGates returns the number of compiled gates (the circuit's gate count).
func (p *Program) NumGates() int { return len(p.op) }

// Fanouts returns the combinational consumers of gate id, one entry per
// fanin edge (a gate reading id on two pins appears twice). Edges into
// DFF data pins are cut, as in the levelization. The caller must not
// modify the returned slice.
func (p *Program) Fanouts(id int32) []int32 {
	return p.fanouts[p.fanoutOff[id]:p.fanoutOff[id+1]]
}

// Level returns the combinational level of gate id: 0 for sources and
// constants, otherwise one more than its deepest fanin. Every entry of
// Fanouts(id) has a strictly higher level than id.
func (p *Program) Level(id int32) int32 { return p.level[id] }

// Order returns the compiled topological evaluation order — the exact
// sequence Run walks. The caller must not modify the returned slice.
func (p *Program) Order() []int32 { return p.order }

// PPIs returns the pseudo-input frame (stimulus order) the Program was
// compiled with. The caller must not modify the returned slice.
func (p *Program) PPIs() []netlist.GateID { return p.ppis }

// PPOs returns the pseudo-output frame (observation order) the Program was
// compiled with. The caller must not modify the returned slice.
func (p *Program) PPOs() []netlist.GateID { return p.ppos }
