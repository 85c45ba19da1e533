package sat

import (
	"slices"
	"testing"
)

// TestMemoReplacement drives the table's store and lookup rules on a
// single bucket: a store with a conflict count no smaller than entry 0's
// takes entry 0 and demotes the old one to entry 1, a smaller one replaces
// entry 1, a lookup finds a key in either entry, a stale entry 0 is reused
// whatever it held, and a key too wide for one bucket leaves the memo off.
func TestMemoReplacement(t *testing.T) {
	memoSlots = 1
	t.Cleanup(func() { memoSlots = 0 })
	f := NewCNF()
	a, b := f.NewVar(), f.NewVar()
	f.Add(a, b)
	s := NewSolver(f)
	s.engageMemo()
	if !s.memoOn {
		t.Fatal("memo did not engage on a one-word key")
	}
	defer s.releaseMemo()
	m := &s.memo
	clear(m.tbl.words) // a pooled table: start from zero keys in both entries
	if len(m.key) != 1 {
		t.Fatalf("key of %d words for 2 variables and 1 clause, want 1", len(m.key))
	}
	setKey := func(k uint64) { m.key[0], m.hash = k, k*0x9e3779b97f4a7c15 }
	store := func(k uint64, conflicts int64) { setKey(k); s.memoStore(conflicts) }
	lookup := func(k uint64) (int64, bool) { setKey(k); return s.memoLookup() }
	// expect checks every key's lookup (0 means a miss) and which key each
	// entry holds.
	expect := func(step string, want map[uint64]int64, k0, k1 uint64) {
		t.Helper()
		for k, n := range want {
			got, ok := lookup(k)
			if ok != (n != 0) || got != n {
				t.Errorf("%s: lookup of key %d = %d, %v; want %d, %v", step, k, got, ok, n, n != 0)
			}
		}
		e0, e1 := m.bucket()
		if e0[0] != k0 || e1[0] != k1 {
			t.Errorf("%s: entries hold keys %d and %d, want %d and %d", step, e0[0], e1[0], k0, k1)
		}
	}

	store(1, 10)
	expect("first store", map[uint64]int64{1: 10, 2: 0}, 1, 0)
	store(2, 20)
	expect("bigger count demotes entry 0", map[uint64]int64{1: 10, 2: 20}, 2, 1)
	store(3, 5)
	expect("smaller count goes to entry 1", map[uint64]int64{1: 0, 2: 20, 3: 5}, 2, 3)
	store(4, 20)
	expect("equal count takes entry 0", map[uint64]int64{2: 20, 3: 0, 4: 20}, 4, 2)

	m.tbl.epoch++ // what the next engagement of a pooled table does
	expect("new epoch", map[uint64]int64{2: 0, 4: 0}, 4, 2)
	store(5, 1)
	expect("stale entry 0 is reused", map[uint64]int64{2: 0, 4: 0, 5: 1}, 5, 2)
	store(6, 3)
	expect("demotion overwrites a stale entry 1", map[uint64]int64{5: 1, 6: 3}, 6, 5)

	// One bucket holds two entries of key, count and epoch: a key of
	// memoBudgetWords/2 − 2 words still fits, one word more does not.
	for _, tc := range []struct {
		words int
		on    bool
	}{{memoBudgetWords/2 - 2, true}, {memoBudgetWords/2 - 1, false}} {
		w := NewSolver(f)
		w.memo.buildOcc(w)
		w.memo.key = make([]uint64, tc.words)
		w.engageMemo()
		if w.memoOn != tc.on {
			t.Errorf("%d-word key: memo on = %v, want %v", tc.words, w.memoOn, tc.on)
		}
		w.releaseMemo()
	}
}

// TestMemoKeyPacked checks the key layout on a formula of s953's miter
// size: the satisfied-clause bits start right after the nVars+1 variable
// bits, with no padding between them, so 68 variables and 164 clauses take
// 4 key words.
func TestMemoKeyPacked(t *testing.T) {
	f := NewCNF()
	for i := 0; i < 68; i++ {
		f.NewVar()
	}
	for i := 0; i < 164; i++ {
		f.Add(Lit(1+i%68), Lit(1+(i+1)%68).Neg())
	}
	s := NewSolver(f)
	s.memo.buildOcc(s)
	if s.memo.clauseBit != 69 || len(s.memo.key) != 4 {
		t.Fatalf("clause bit %d, %d key words; want 69 and 4", s.memo.clauseBit, len(s.memo.key))
	}
	// Variable 68 is bit 68; +68 satisfies clauses 67 and 135, bits 136
	// and 204.
	s.memo.assign(68)
	if want := []uint64{0, 1 << (68 - 64), 1 << (136 - 128), 1 << (204 - 192)}; !slices.Equal(s.memo.key, want) {
		t.Fatalf("key %x after asserting variable 68, want %x", s.memo.key, want)
	}
}
