package tam

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// s5378Like builds a CoreTest with the published s5378 shape: 35/49 I/O,
// 179 scan cells in 4 chains, 244 patterns.
func s5378Like() CoreTest {
	return CoreTest{
		Name: "s5378", Inputs: 35, Outputs: 49,
		Chains: []int{45, 45, 45, 44}, Patterns: 244,
	}
}

func TestCoreTestAccounting(t *testing.T) {
	c := s5378Like()
	if c.ScanCells() != 179 {
		t.Errorf("scan cells = %d", c.ScanCells())
	}
	// 2*179 + 35 + 49 = 442: the Eq. 4 per-pattern bits of Table 2.
	if c.UsefulBitsPerPattern() != 442 {
		t.Errorf("useful bits = %d, want 442", c.UsefulBitsPerPattern())
	}
	b := CoreTest{Inputs: 1, Outputs: 1, Bidirs: 3}
	if b.UsefulBitsPerPattern() != 8 {
		t.Errorf("bidir bits = %d, want 8", b.UsefulBitsPerPattern())
	}
}

func TestDesignWrapperBalances(t *testing.T) {
	c := s5378Like()
	for w := 1; w <= 8; w++ {
		wc, err := DesignWrapper(c, w)
		if err != nil {
			t.Fatal(err)
		}
		if wc.Width() != w {
			t.Fatalf("width = %d", wc.Width())
		}
		// All payload assigned.
		if got := wc.UsefulBitsShifted(); got != c.UsefulBitsPerPattern() {
			t.Errorf("w=%d: payload %d, want %d", w, got, c.UsefulBitsPerPattern())
		}
		// The max depth must shrink (weakly) with more chains and respect
		// the unsplittable-chain lower bound.
		if w > 1 {
			prev, _ := DesignWrapper(c, w-1)
			if wc.MaxIn() > prev.MaxIn() || wc.MaxOut() > prev.MaxOut() {
				t.Errorf("w=%d: depth grew with more chains", w)
			}
		}
		longest := 45 // longest internal chain is unsplittable
		if w <= 4 && wc.MaxIn() < longest {
			t.Errorf("w=%d: max in %d below the unsplittable bound", w, wc.MaxIn())
		}
	}
}

func TestDesignWrapperErrors(t *testing.T) {
	if _, err := DesignWrapper(CoreTest{}, 0); err == nil {
		t.Error("width 0 accepted")
	}
}

func TestDesignWrapperMoreChainsThanItems(t *testing.T) {
	c := CoreTest{Name: "tiny", Inputs: 1, Outputs: 1, Chains: []int{3}, Patterns: 5}
	wc, err := DesignWrapper(c, 8)
	if err != nil {
		t.Fatal(err)
	}
	if wc.UsefulBitsShifted() != c.UsefulBitsPerPattern() {
		t.Error("payload lost with excess width")
	}
	if wc.MaxIn() != 3 {
		t.Errorf("max in = %d, want 3 (internal chain)", wc.MaxIn())
	}
}

func TestTestTimeFormula(t *testing.T) {
	// A core with si=10, so=6, T=100: t = (1+10)*100 + 6 = 1106.
	c := CoreTest{Name: "x", Inputs: 10, Outputs: 6, Patterns: 100}
	wc, _ := DesignWrapper(c, 1)
	if wc.MaxIn() != 10 || wc.MaxOut() != 6 {
		t.Fatalf("depths %d/%d", wc.MaxIn(), wc.MaxOut())
	}
	if got := TestTime(c, wc); got != 1106 {
		t.Errorf("test time = %d, want 1106", got)
	}
}

func TestIdleBitsZeroWhenPerfect(t *testing.T) {
	// Four equal chains, no ports: perfectly balanced, zero idle.
	c := CoreTest{Name: "bal", Chains: []int{10, 10, 10, 10}, Patterns: 7}
	wc, _ := DesignWrapper(c, 4)
	if wc.IdleBitsPerPattern() != 0 {
		t.Errorf("idle = %d, want 0", wc.IdleBitsPerPattern())
	}
	// 4 chains x depth 10, both directions.
	if wc.ShiftedBitsPerPattern() != 80 {
		t.Errorf("shifted = %d, want 80", wc.ShiftedBitsPerPattern())
	}
}

func TestIdleBitsImbalanced(t *testing.T) {
	// One long chain, one short: the short chain idles.
	c := CoreTest{Name: "imb", Chains: []int{30, 5}, Patterns: 2}
	wc, _ := DesignWrapper(c, 2)
	if wc.IdleBitsPerPattern() != 2*(30-5) {
		t.Errorf("idle = %d, want 50", wc.IdleBitsPerPattern())
	}
}

// Property: for any core and width, the wrapper design conserves payload,
// shifted >= useful, and test time decreases weakly as width grows.
func TestWrapperDesignProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	if err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := CoreTest{
			Name:     "p",
			Inputs:   r.Intn(60),
			Outputs:  r.Intn(60),
			Bidirs:   r.Intn(10),
			Patterns: 1 + r.Intn(500),
		}
		for i := 0; i < r.Intn(6); i++ {
			c.Chains = append(c.Chains, 1+r.Intn(80))
		}
		var prevTime int64 = -1
		for w := 1; w <= 6; w++ {
			wc, err := DesignWrapper(c, w)
			if err != nil {
				return false
			}
			if wc.UsefulBitsShifted() != c.UsefulBitsPerPattern() {
				return false
			}
			// Conservation: shifted volume = useful payload + idle padding.
			if wc.ShiftedBitsPerPattern() != wc.UsefulBitsShifted()+wc.IdleBitsPerPattern() {
				return false
			}
			if wc.IdleBitsPerPattern() < 0 {
				return false
			}
			tt := TestTime(c, wc)
			if prevTime >= 0 && tt > prevTime {
				return false // more wires must never slow the core down
			}
			prevTime = tt
		}
		return true
	}, cfg); err != nil {
		t.Error(err)
	}
}
