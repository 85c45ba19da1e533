package sat

import (
	"math/bits"
	"slices"
	"sync"
)

// The memo caches refuted DPLL subtrees by their residual formula, after
// DPLL with caching (Bacchus, Dalmao & Pitassi, FOCS 2003). At a decision
// node the residual formula — the clauses not yet satisfied, restricted to
// the unassigned variables — is fixed by two sets: the assigned variables
// and the satisfied clauses. The key is those two bitsets, packed end to
// end, kept current on every enqueue and undo together with a Zobrist
// hash of them.
//
// Exactness: unit propagation is confluent (a residual formula has one
// propagation fixpoint, or conflicts under every propagation order), and
// the decision rule reads only the unassigned set, so every node with the
// same key roots the same subtree with the same conflict count. Only
// refuted subtrees are stored, and a lookup compares the full key, so a
// satisfiable search still meets the same first model.
//
// The table is a two-level transposition table (Breuker, Uiterwijk & van
// den Herik, ICCA Journal 1996): each bucket holds two entries. Entry 0
// keeps the biggest subtree stored in the bucket, the one whose loss
// would cost the most re-exploration; entry 1 keeps the most recent
// store. A store that loses an entry costs only re-exploration, never a
// wrong count.

// memoBudgetWords is the size of one memo table: 640 KiB in 64-bit words.
// The table holds as many two-entry buckets as fit in it.
const memoBudgetWords = 640 << 10 / 8

// memoSlots, when positive, overrides the bucket count (capped at what
// fits the budget) so tests can force collisions and replacement.
var memoSlots int

// memoTable is one pooled table. An entry is stride words: the key, the
// stored conflict count, and the epoch that wrote it; a bucket is two
// consecutive entries. An entry is valid only when its epoch is the
// table's current one, so a reused table needs no clearing unless the
// stride changes.
type memoTable struct {
	words  []uint64
	stride int
	epoch  uint64
}

// memoPool shares tables across solvers so that settling many faults does
// not allocate one table per proof.
var memoPool = sync.Pool{New: func() any {
	return &memoTable{words: make([]uint64, memoBudgetWords)}
}}

// memo is a solver's residual-formula state and its table while live.
type memo struct {
	occ       [][]int32 // occ[watchIdx(l)]: the clauses containing literal l
	nTrue     []int32   // per clause: its number of true literals
	key       []uint64  // assigned-variable bits, then satisfied-clause bits
	clauseBit uint      // key bit of clause 0
	hash      uint64    // Zobrist hash of key

	tbl     *memoTable
	buckets uint64
}

// engageMemo makes the memo live: it rebuilds the key from the current
// trail and takes a table from the pool. The occurrence lists are built
// once per solver, on its first engagement.
func (s *Solver) engageMemo() {
	m := &s.memo
	if m.occ == nil {
		m.buildOcc(s)
	}
	stride := len(m.key) + 2
	buckets := memoBudgetWords / (2 * stride)
	if memoSlots > 0 {
		buckets = min(buckets, memoSlots)
	}
	if buckets == 0 {
		return // a key too wide for the budget: search without the memo
	}
	clear(m.nTrue)
	clear(m.key)
	m.hash = 0
	for _, l := range s.trail {
		m.assign(l)
	}
	t := memoPool.Get().(*memoTable)
	if t.stride != stride {
		clear(t.words)
		t.stride, t.epoch = stride, 0
	}
	t.epoch++
	m.tbl, m.buckets = t, uint64(buckets)
	s.memoOn = true
}

// buildOcc lays the occurrence lists out in one backing array and sizes
// the key.
func (m *memo) buildOcc(s *Solver) {
	counts := make([]int, 2*(s.nVars+1))
	total := 0
	for _, c := range s.clauses {
		for _, l := range c {
			counts[watchIdx(l)]++
		}
		total += len(c)
	}
	flat := make([]int32, total)
	m.occ = make([][]int32, len(counts))
	for i, n := range counts {
		m.occ[i], flat = flat[:0:n], flat[n:]
	}
	for ci, c := range s.clauses {
		for _, l := range c {
			m.occ[watchIdx(l)] = append(m.occ[watchIdx(l)], int32(ci))
		}
	}
	m.clauseBit = uint(s.nVars) + 1
	m.key = make([]uint64, (int(m.clauseBit)+len(s.clauses)+63)/64)
	m.nTrue = make([]int32, len(s.clauses))
}

// releaseMemo returns the table to the pool and makes the memo idle.
func (s *Solver) releaseMemo() {
	if !s.memoOn {
		return
	}
	memoPool.Put(s.memo.tbl)
	s.memo.tbl = nil
	s.memoOn = false
}

// toggle flips key bit b and its Zobrist code.
func (m *memo) toggle(b uint) {
	m.key[b>>6] ^= 1 << (b & 63)
	m.hash ^= zobrist(uint64(b))
}

// assign records that l became true: its variable is assigned and every
// clause containing l is satisfied.
func (m *memo) assign(l Lit) {
	m.toggle(uint(l.Var()))
	for _, ci := range m.occ[watchIdx(l)] {
		m.nTrue[ci]++
		if m.nTrue[ci] == 1 {
			m.toggle(m.clauseBit + uint(ci))
		}
	}
}

// unassign reverts assign(l).
func (m *memo) unassign(l Lit) {
	m.toggle(uint(l.Var()))
	for _, ci := range m.occ[watchIdx(l)] {
		m.nTrue[ci]--
		if m.nTrue[ci] == 0 {
			m.toggle(m.clauseBit + uint(ci))
		}
	}
}

// bucket returns the two entries of the current key's bucket.
func (m *memo) bucket() (e0, e1 []uint64) {
	st := m.tbl.stride
	i, _ := bits.Mul64(m.hash, m.buckets)
	b := m.tbl.words[int(i)*2*st:][:2*st]
	return b[:st], b[st:]
}

// holds reports whether entry e is valid and keyed by the current key.
func (m *memo) holds(e []uint64) bool {
	n := len(m.key)
	return e[n+1] == m.tbl.epoch && slices.Equal(e[:n], m.key)
}

// memoLookup returns the stored conflict count of the current residual
// formula when an earlier subtree with the same key was refuted.
func (s *Solver) memoLookup() (int64, bool) {
	if !s.memoOn {
		return 0, false
	}
	m := &s.memo
	n := len(m.key)
	e0, e1 := m.bucket()
	if m.holds(e0) {
		return int64(e0[n]), true
	}
	if m.holds(e1) {
		return int64(e1[n]), true
	}
	return 0, false
}

// memoStore records that the subtree rooted at the current residual
// formula was refuted with the given number of conflicts. The new entry
// takes entry 0 when that is stale or holds a subtree no bigger, demoting
// a valid old entry 0 to entry 1; otherwise it replaces entry 1.
func (s *Solver) memoStore(conflicts int64) {
	if !s.memoOn {
		return
	}
	m := &s.memo
	n := len(m.key)
	e, e1 := m.bucket()
	if e[n+1] == m.tbl.epoch {
		if int64(e[n]) <= conflicts {
			copy(e1, e)
		} else {
			e = e1
		}
	}
	copy(e, m.key)
	e[n], e[n+1] = uint64(conflicts), m.tbl.epoch
}

// zobrist is the fixed pseudo-random code of key bit b (the splitmix64
// finalizer), so hashes, and with them slot choices, are reproducible.
func zobrist(b uint64) uint64 {
	z := (b + 1) * 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}
