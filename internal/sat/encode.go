package sat

import (
	"encoding/binary"
	"fmt"

	"repro/internal/netlist"
)

// Encoder builds Tseitin encodings of gate-level logic into one shared CNF.
// One Encoder can encode several circuit copies (the two halves of a miter
// share it, and share the stimulus variables); every variable it allocates
// comes from the same CNF, in a deterministic traversal order.
//
// Gates are encoded as (base function, inversion) pairs from the netlist
// gate table: BUF never allocates a variable — it aliases the fanin
// literal — and an inverted gate (NOT/NAND/NOR/XNOR/CONST1) encodes its
// base function and returns the negated literal. Constants share one
// lazily allocated pinned variable. With sharing enabled (EnableSharing), structurally identical
// gates — same base function over the same fanin literals — collapse to one
// variable, which is what lets the equivalence check of an honest kernel
// compile discharge structurally, with no search at all.
type Encoder struct {
	F    *CNF
	cons map[gateKey]Lit // nil until EnableSharing
	t    Lit             // constant-true literal; 0 until first use
}

// NewEncoder returns an encoder emitting into f.
func NewEncoder(f *CNF) *Encoder { return &Encoder{F: f} }

// EnableSharing turns on structural hashing for subsequently encoded gates.
func (e *Encoder) EnableSharing() {
	if e.cons == nil {
		e.cons = make(map[gateKey]Lit)
	}
}

// True returns the constant-true literal, allocating and pinning it on
// first use.
func (e *Encoder) True() Lit {
	if e.t == 0 {
		e.t = e.F.NewVar()
		e.F.Add(e.t)
	}
	return e.t
}

// False returns the constant-false literal.
func (e *Encoder) False() Lit { return e.True().Neg() }

// gateKey identifies a gate up to structural equality: a base function tag
// and the exact fanin literal sequence (order preserved — both encoding
// paths visit fanins in pin order, so no sorting is needed).
type gateKey struct {
	fn  byte // 'A' and, 'O' or, 'X' xor (inputs sign-normalized)
	ins string
}

func packLits(ins []Lit) string {
	b := make([]byte, 4*len(ins))
	for i, l := range ins {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(l))
	}
	return string(b)
}

// Gate encodes one combinational gate, base function fn with its output
// inverted when invert is set, over the given fanin literals and returns
// its output literal. Sources are values, not functions, and panic here.
func (e *Encoder) Gate(fn netlist.Func, invert bool, ins []Lit) Lit {
	var o Lit
	switch fn {
	case netlist.FuncBuf:
		o = ins[0]
	case netlist.FuncConst:
		o = e.False()
	case netlist.FuncAnd:
		o = e.and(ins)
	case netlist.FuncOr:
		o = e.or(ins)
	case netlist.FuncXor:
		o = e.xor(ins)
	default:
		panic(fmt.Sprintf("sat: Tseitin encode of non-combinational function %v", fn))
	}
	if invert {
		o = o.Neg()
	}
	return o
}

// lookup consults the sharing table; alloc is called (and memoized) on miss.
func (e *Encoder) lookup(fn byte, ins []Lit, alloc func() Lit) Lit {
	if e.cons == nil {
		return alloc()
	}
	k := gateKey{fn, packLits(ins)}
	if l, ok := e.cons[k]; ok {
		return l
	}
	l := alloc()
	e.cons[k] = l
	return l
}

// and returns o with o ↔ (ins[0] ∧ ins[1] ∧ ...).
func (e *Encoder) and(ins []Lit) Lit {
	if len(ins) == 1 {
		return ins[0]
	}
	return e.lookup('A', ins, func() Lit {
		o := e.F.NewVar()
		back := make([]Lit, 0, len(ins)+1)
		back = append(back, o)
		for _, in := range ins {
			e.F.Add(o.Neg(), in) // o → in
			back = append(back, in.Neg())
		}
		e.F.Add(back...) // (∧ ins) → o
		return o
	})
}

// or returns o with o ↔ (ins[0] ∨ ins[1] ∨ ...).
func (e *Encoder) or(ins []Lit) Lit {
	if len(ins) == 1 {
		return ins[0]
	}
	return e.lookup('O', ins, func() Lit {
		o := e.F.NewVar()
		fwd := make([]Lit, 0, len(ins)+1)
		fwd = append(fwd, o.Neg())
		for _, in := range ins {
			e.F.Add(o, in.Neg()) // in → o
			fwd = append(fwd, in)
		}
		e.F.Add(fwd...) // o → (∨ ins)
		return o
	})
}

// xor returns o with o ↔ (ins[0] ⊕ ins[1] ⊕ ...), built as a chain of
// two-input XORs. Input signs are normalized into the output sign first
// (a ⊕ ¬b = ¬(a ⊕ b)), so shared lookups see one canonical form.
func (e *Encoder) xor(ins []Lit) Lit {
	norm := make([]Lit, len(ins))
	flip := false
	for i, in := range ins {
		if in < 0 {
			in = in.Neg()
			flip = !flip
		}
		norm[i] = in
	}
	o := norm[0]
	for _, in := range norm[1:] {
		o = e.xor2(o, in)
	}
	if flip {
		o = o.Neg()
	}
	return o
}

func (e *Encoder) xor2(a, b Lit) Lit {
	// Re-normalize: chaining can produce a negative accumulator.
	flip := false
	if a < 0 {
		a, flip = a.Neg(), !flip
	}
	if b < 0 {
		b, flip = b.Neg(), !flip
	}
	o := e.lookup('X', []Lit{a, b}, func() Lit {
		o := e.F.NewVar()
		e.F.Add(o.Neg(), a, b)
		e.F.Add(o.Neg(), a.Neg(), b.Neg())
		e.F.Add(o, a.Neg(), b)
		e.F.Add(o, a, b.Neg())
		return o
	})
	if flip {
		o = o.Neg()
	}
	return o
}

// CircuitEncoding is one encoded copy of (a restriction of) a circuit:
// the literal of every encoded gate's output net, indexed by GateID.
type CircuitEncoding struct {
	C   *netlist.Circuit
	lit []Lit // 0 = gate not encoded
}

// Lit returns the literal of gate id's output, or 0 when the gate lies
// outside the encoded restriction.
func (ce *CircuitEncoding) Lit(id netlist.GateID) Lit { return ce.lit[id] }

// setLit is used by miter construction to pre-seed shared source literals.
func (ce *CircuitEncoding) setLit(id netlist.GateID, l Lit) { ce.lit[id] = l }

// Circuit encodes the good (fault-free) function of c, restricted to the
// gates in keep (nil keep = every gate). keep must be closed under fanin:
// encoding a gate whose fanin is excluded panics.
//
// Variable order is the determinism contract AND the solver's search
// strategy: stimulus variables (pseudo inputs, in PseudoInputs order) are
// allocated before any gate variable, so the solver's fixed
// lowest-index-first decision order decides circuit inputs first and unit
// propagation evaluates the logic — no decision is ever spent on an
// internal net.
func (e *Encoder) Circuit(c *netlist.Circuit, keep map[netlist.GateID]bool) *CircuitEncoding {
	ce := &CircuitEncoding{C: c, lit: make([]Lit, c.NumGates())}
	for _, id := range c.PseudoInputs() {
		if keep == nil || keep[id] {
			ce.lit[id] = e.F.NewVar()
		}
	}
	e.encodeGates(ce, keep)
	return ce
}

// encodeGates Tseitin-encodes the combinational gates of ce.C (restricted
// to keep) in topological order, reusing any literals already present in
// ce.lit (pre-seeded sources, or a previously encoded prefix).
func (e *Encoder) encodeGates(ce *CircuitEncoding, keep map[netlist.GateID]bool) {
	c := ce.C
	var ins []Lit
	for _, id := range c.TopoOrder() {
		if keep != nil && !keep[id] {
			continue
		}
		if ce.lit[id] != 0 {
			continue
		}
		g := c.Gate(id)
		ins = ins[:0]
		for _, f := range g.Fanin {
			l := ce.lit[f]
			if l == 0 {
				panic(fmt.Sprintf("sat: encoding restriction not fanin-closed: gate %q needs unencoded fanin %q",
					g.Name, c.Gate(f).Name))
			}
			ins = append(ins, l)
		}
		ce.lit[id] = e.Gate(g.Type.Func(), g.Type.Inverted(), ins)
	}
}

// Support returns the transitive fanin closure of the given roots
// (inclusive), i.e. the smallest fanin-closed gate set containing them —
// the natural keep set for Circuit.
func Support(c *netlist.Circuit, roots []netlist.GateID) map[netlist.GateID]bool {
	keep := make(map[netlist.GateID]bool, len(roots)*4)
	stack := append([]netlist.GateID(nil), roots...)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if keep[id] {
			continue
		}
		keep[id] = true
		g := c.Gate(id)
		if g.Type == netlist.Input || g.Type == netlist.DFF {
			continue // value sources: their drivers live in another time frame
		}
		stack = append(stack, g.Fanin...)
	}
	return keep
}
