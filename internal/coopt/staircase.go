package coopt

import (
	"fmt"

	"repro/internal/tam"
)

// Config is one Pareto-optimal wrapper configuration of a core: the TAM
// lines it consumes and the resulting test application time. The shift
// depths and per-pattern idle bits feed the schedule's idle accounting.
type Config struct {
	Width          int   `json:"width"`
	Time           int64 `json:"time"`
	MaxIn          int   `json:"-"`
	MaxOut         int   `json:"-"`
	IdlePerPattern int64 `json:"-"`
}

// Area returns the config's TAM occupancy in line-cycles — the rectangle
// the packer places.
func (c Config) Area() int64 { return int64(c.Width) * c.Time }

// Staircase computes the width→time staircase of Pareto-optimal wrapper
// configurations for one core: for every wrapper width 1..maxW the
// balanced partition is designed and timed, and only the widths that
// strictly improve the test time are kept. The result is the classic
// staircase of wrapper/TAM co-optimization (1008.3320 Figure "Design_
// wrapper"): ascending widths, strictly decreasing times, never empty
// (width 1 always fits — every chain concatenates onto one wrapper
// chain).
//
// Cores that declare their internal scan-chain lengths are partitioned
// with tam.DesignWrapper (the chains are unsplittable). Cores that only
// publish a scan-cell total — the synthesized ITC'02 profiles — are
// treated as freely partitionable scan (every cell its own unit chain),
// computed by the closed-form fast path designSplittable, which
// reproduces tam.DesignWrapper on unit chains exactly (see the
// differential test) without the per-cell LPT loop.
func Staircase(t tam.CoreTest, scanCells, maxW int) ([]Config, error) {
	if t.Patterns <= 0 {
		return nil, fmt.Errorf("core %s has no patterns", t.Name)
	}
	var cfgs []Config
	best := int64(-1)
	for w := 1; w <= maxW; w++ {
		var (
			wc  tam.WrapperChains
			err error
		)
		if len(t.Chains) > 0 {
			wc, err = tam.DesignWrapper(t, w)
		} else {
			wc, err = designSplittable(scanCells, t.Inputs, t.Outputs, t.Bidirs, w)
		}
		if err != nil {
			return nil, err
		}
		tt := tam.TestTime(t, wc)
		if best >= 0 && tt >= best {
			continue
		}
		best = tt
		cfgs = append(cfgs, Config{
			Width:          w,
			Time:           tt,
			MaxIn:          wc.MaxIn(),
			MaxOut:         wc.MaxOut(),
			IdlePerPattern: wc.IdleBitsPerPattern(),
		})
	}
	return cfgs, nil
}

// designSplittable is the splittable-scan fast path of tam.DesignWrapper:
// it produces exactly the WrapperChains DesignWrapper would return for a
// core whose scanCells internal cells are each their own length-1 chain,
// without iterating per cell or per wrapper-cell.
//
// Phase 1 of DesignWrapper (LPT over unit chains, LeastLoaded tie-breaking
// on the lowest index) deals the cells round-robin. Phases 2a/2b (leveling
// the input/output wrapper cells, argmin on the lowest index) first fill
// the valley the round-robin left, then continue round-robin — so each
// direction ends perfectly balanced with the ceiling entries forming a
// prefix: chain k carries ⌈n/w⌉ items for k < n mod w and ⌊n/w⌋ after,
// where n is cells-plus-ports for that direction. balancedFill is that
// closed form; the differential test in staircase_test.go pins the
// equivalence against the real DesignWrapper on unit chains. Phase 2c
// deals each bidir cell to the chain of least in+out length, the lowest
// index on ties. balancedFill leaves those lengths non-increasing in the
// index and within two of each other, and from such a profile w cells
// give every chain one: the least chains, a suffix, take theirs first and
// end above every other, and the profile keeps its shape. So bidirs/w
// whole rounds are added at once and only the rest dealt one by one: the
// cost does not grow with the bidir count.
func designSplittable(scanCells, inputs, outputs, bidirs, w int) (tam.WrapperChains, error) {
	if w < 1 {
		return tam.WrapperChains{}, fmt.Errorf("coopt: wrapper width must be >= 1, got %d", w)
	}
	wc := tam.WrapperChains{
		In:  balancedFill(scanCells+inputs, w),
		Out: balancedFill(scanCells+outputs, w),
	}
	for k := range wc.In {
		wc.In[k], wc.Out[k] = wc.In[k]+bidirs/w, wc.Out[k]+bidirs/w
	}
	for i := 0; i < bidirs%w; i++ {
		k := wc.LeastLoaded()
		wc.In[k]++
		wc.Out[k]++
	}
	return wc, nil
}

// balancedFill deals n unit items over w chains the way DesignWrapper's
// argmin loop does: ⌈n/w⌉ on the first n mod w chains, ⌊n/w⌋ on the rest.
func balancedFill(n, w int) []int {
	out := make([]int, w)
	base, extra := n/w, n%w
	for k := range out {
		out[k] = base
		if k < extra {
			out[k]++
		}
	}
	return out
}
