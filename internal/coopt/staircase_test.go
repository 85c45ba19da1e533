package coopt

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/itc02"
	"repro/internal/tam"
)

// TestDesignSplittableMatchesDesignWrapper pins the closed-form fast path
// against the real tam.DesignWrapper on unit chains: a core whose scan
// cells are each their own length-1 chain must get bit-identical wrapper
// chains from both paths, for every width. This is the equivalence the
// staircase of every synthesized ITC'02 core rests on.
func TestDesignSplittableMatchesDesignWrapper(t *testing.T) {
	cases := []struct{ s, i, o, b int }{
		{0, 0, 0, 0},
		{1, 0, 0, 0},
		{7, 3, 2, 1},
		{16, 16, 16, 0},
		{100, 55, 40, 5},
		{137, 1, 99, 17},
		{200, 0, 0, 64},
		{63, 64, 1, 2},
	}
	for _, c := range cases {
		unit := tam.CoreTest{
			Name:     "unit",
			Inputs:   c.i,
			Outputs:  c.o,
			Bidirs:   c.b,
			Chains:   make([]int, c.s),
			Patterns: 1,
		}
		for k := range unit.Chains {
			unit.Chains[k] = 1
		}
		for w := 1; w <= 64; w++ {
			want, err := tam.DesignWrapper(unit, w)
			if err != nil {
				t.Fatal(err)
			}
			got, err := designSplittable(c.s, c.i, c.o, c.b, w)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("s=%d i=%d o=%d b=%d w=%d: designSplittable=%+v, DesignWrapper=%+v",
					c.s, c.i, c.o, c.b, w, got, want)
			}
		}
	}
}

// dealBidirsOneByOne is designSplittable's bidir phase as DesignWrapper
// runs it, one cell at a time: the oracle for the whole-round fast path.
func dealBidirsOneByOne(wc tam.WrapperChains) {
	k := wc.LeastLoaded()
	wc.In[k]++
	wc.Out[k]++
}

// TestDesignSplittableBidirRounds holds designSplittable to the one-cell-
// at-a-time bidir loop for every width up to 8, every scan, input and
// output count up to 40 and every bidir count up to 200. The result
// depends on the counts only through S+I and S+O, so each such pair is
// checked once.
func TestDesignSplittableBidirRounds(t *testing.T) {
	seen := map[[2]int]bool{}
	for s := 0; s <= 40; s++ {
		for i := 0; i <= 40; i++ {
			for o := 0; o <= 40; o++ {
				if seen[[2]int{s + i, s + o}] {
					continue
				}
				seen[[2]int{s + i, s + o}] = true
				for w := 1; w <= 8; w++ {
					want := tam.WrapperChains{In: balancedFill(s+i, w), Out: balancedFill(s+o, w)}
					for b := 0; b <= 200; b++ {
						got, err := designSplittable(s, i, o, b, w)
						if err != nil {
							t.Fatal(err)
						}
						if !slices.Equal(got.In, want.In) || !slices.Equal(got.Out, want.Out) {
							t.Fatalf("s=%d i=%d o=%d b=%d w=%d: designSplittable=%+v, one by one=%+v", s, i, o, b, w, got, want)
						}
						dealBidirsOneByOne(want)
					}
				}
			}
		}
	}
}

// TestDesignSplittableHugeBidirs checks that a bidir count of a billion
// costs no more than a small one, and that the cells end evenly spread.
func TestDesignSplittableHugeBidirs(t *testing.T) {
	start := time.Now()
	wc, err := designSplittable(0, 0, 0, 1_000_000_000, 8)
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("a billion bidir cells took %v", d)
	}
	for k := range wc.In {
		if wc.In[k] != 125_000_000 || wc.Out[k] != 125_000_000 {
			t.Fatalf("chain %d: %d in, %d out, want 125,000,000 each", k, wc.In[k], wc.Out[k])
		}
	}
}

func TestBalancedFill(t *testing.T) {
	got := balancedFill(7, 3)
	if !reflect.DeepEqual(got, []int{3, 2, 2}) {
		t.Fatalf("balancedFill(7,3) = %v", got)
	}
	if !reflect.DeepEqual(balancedFill(0, 4), []int{0, 0, 0, 0}) {
		t.Fatal("balancedFill(0,4) must be all zeros")
	}
}

// TestStaircaseShape checks the staircase invariants on every testable
// module of every ITC'02 SOC: widths strictly ascending starting at 1,
// times strictly descending, and every config's time equal to an actual
// wrapper design's test time.
func TestStaircaseShape(t *testing.T) {
	socs, err := itc02.AllSOCs()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range socs {
		cores, err := BuildCores(s, MaxTAMWidth)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		for _, c := range cores {
			if len(c.Configs) == 0 {
				t.Fatalf("%s/%s: empty staircase", s.Name, c.Name)
			}
			if c.Configs[0].Width != 1 {
				t.Fatalf("%s/%s: staircase starts at width %d, want 1", s.Name, c.Name, c.Configs[0].Width)
			}
			for k := 1; k < len(c.Configs); k++ {
				prev, cur := c.Configs[k-1], c.Configs[k]
				if cur.Width <= prev.Width {
					t.Fatalf("%s/%s: widths not ascending at %d", s.Name, c.Name, k)
				}
				if cur.Time >= prev.Time {
					t.Fatalf("%s/%s: time %d at width %d does not improve on %d at width %d",
						s.Name, c.Name, cur.Time, cur.Width, prev.Time, prev.Width)
				}
			}
		}
	}
}

// chainedSOC builds a small profile whose cores declare per-chain
// lengths, exercising the unsplittable-chain path (tam.DesignWrapper) the
// synthesized ITC'02 profiles never take.
func chainedSOC() *core.SOC {
	return &core.SOC{
		Name: "chained",
		Top: &core.Module{
			Name: "top",
			Children: []*core.Module{
				{
					Name:       "a",
					Params:     core.Params{Inputs: 4, Outputs: 6, Bidirs: 1, ScanCells: 20, Patterns: 12},
					ScanChains: []int{9, 6, 5},
				},
				{
					Name:       "b",
					Params:     core.Params{Inputs: 2, Outputs: 2, ScanCells: 50, Patterns: 30},
					ScanChains: []int{30, 10, 10},
				},
			},
		},
	}
}

// TestStaircaseDeclaredChains exercises the unsplittable-chain path: the
// staircase must still be strictly improving and must agree with a direct
// DesignWrapper + TestTime evaluation at every kept width.
func TestStaircaseDeclaredChains(t *testing.T) {
	cores, err := BuildCores(chainedSOC(), 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(cores) != 2 {
		t.Fatalf("expected 2 testable cores, got %d", len(cores))
	}
	for _, c := range cores {
		if len(c.Test.Chains) == 0 {
			t.Fatalf("%s lost its declared chains", c.Name)
		}
		for _, cfg := range c.Configs {
			wc, err := tam.DesignWrapper(c.Test, cfg.Width)
			if err != nil {
				t.Fatal(err)
			}
			if got := tam.TestTime(c.Test, wc); got != cfg.Time {
				t.Fatalf("%s width %d: staircase time %d != DesignWrapper time %d",
					c.Name, cfg.Width, cfg.Time, got)
			}
		}
		// A core whose longest chain dominates saturates early: core b's
		// 30-cell chain bottlenecks every width ≥ 3, so its staircase must
		// stop well short of the requested 16.
		if c.Name == "b" {
			last := c.Configs[len(c.Configs)-1]
			if last.Width > 4 {
				t.Fatalf("b's staircase reaches width %d despite its 30-cell bottleneck chain", last.Width)
			}
		}
	}
}

func TestStaircaseRejectsZeroPatterns(t *testing.T) {
	if _, err := Staircase(tam.CoreTest{Name: "dead"}, 10, 8); err == nil {
		t.Fatal("zero-pattern core must be rejected")
	}
}
