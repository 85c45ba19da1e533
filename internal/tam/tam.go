// Package tam models IEEE 1500-style wrapper chain design — the layer the
// paper deliberately excludes from its TDV accounting ("we exclude the
// impact of the scan chain organization or the test access mechanism from
// our analysis", Section 3) but builds on throughout its related work:
// wrapper scan-chain design in the style of [5, 6].
//
// The package quantifies exactly what that exclusion hides: the test
// application time of a wrapped core and the idle (non-useful) bits
// shifted because wrapper chains cannot always be balanced. The
// co-optimizer in internal/coopt builds every core's wrapper staircase on
// DesignWrapper and schedules the cores on the TAM.
package tam

import (
	"fmt"
	"sort"
)

// CoreTest describes the test resources of one wrapped core: terminal
// counts, internal scan chain lengths, and the pattern count.
type CoreTest struct {
	Name     string
	Inputs   int
	Outputs  int
	Bidirs   int
	Chains   []int // internal scan chain lengths
	Patterns int
}

// ScanCells returns the total internal scan cells.
func (c CoreTest) ScanCells() int {
	n := 0
	for _, l := range c.Chains {
		n += l
	}
	return n
}

// UsefulBitsPerPattern returns the per-pattern useful test data of the
// wrapped core: 2 bits per scan cell plus I+O+2B wrapper-cell bits — the
// quantity the paper's Equation 4 counts.
func (c CoreTest) UsefulBitsPerPattern() int64 {
	return 2*int64(c.ScanCells()) + int64(c.Inputs) + int64(c.Outputs) + 2*int64(c.Bidirs)
}

// WrapperChains is a wrapper chain configuration: the scan-in and scan-out
// length of each of the W wrapper chains. Internal scan chains contribute
// to both directions; input (output) wrapper cells only to scan-in
// (scan-out); bidir cells to both.
type WrapperChains struct {
	In  []int
	Out []int
}

// Width returns the number of wrapper chains.
func (w WrapperChains) Width() int { return len(w.In) }

// MaxIn returns the longest scan-in chain (the shift-in depth per pattern).
func (w WrapperChains) MaxIn() int { return maxOf(w.In) }

// MaxOut returns the longest scan-out chain.
func (w WrapperChains) MaxOut() int { return maxOf(w.Out) }

func maxOf(xs []int) int {
	m := 0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func sumOf(xs []int) int64 {
	var n int64
	for _, x := range xs {
		n += int64(x)
	}
	return n
}

// DesignWrapper partitions the core's test resources over w wrapper chains
// so as to minimize max(scan-in depth, scan-out depth), using the standard
// two-phase heuristic of IEEE 1500 wrapper design [6]:
//
//  1. internal scan chains are assigned largest-first to the currently
//     shortest chain (LPT), since they are unsplittable and count in both
//     directions;
//  2. input, output and bidir wrapper cells (splittable, 1 bit each) are
//     then spread to level the scan-in and scan-out profiles.
//
// w must be at least 1; w larger than the number of assignable items is
// clamped by leaving chains empty.
func DesignWrapper(c CoreTest, w int) (WrapperChains, error) {
	if w < 1 {
		return WrapperChains{}, fmt.Errorf("tam: wrapper width must be >= 1, got %d", w)
	}
	wc := WrapperChains{In: make([]int, w), Out: make([]int, w)}

	// Phase 1: LPT over internal chains (keyed on scan-in+scan-out sum,
	// which is identical for internal chains, so key on In).
	chains := append([]int(nil), c.Chains...)
	sort.Sort(sort.Reverse(sort.IntSlice(chains)))
	for _, l := range chains {
		k := argminSum(wc)
		wc.In[k] += l
		wc.Out[k] += l
	}
	// Phase 2a: input cells level the scan-in profile.
	for i := 0; i < c.Inputs; i++ {
		wc.In[argmin(wc.In)]++
	}
	// Phase 2b: output cells level the scan-out profile.
	for i := 0; i < c.Outputs; i++ {
		wc.Out[argmin(wc.Out)]++
	}
	// Phase 2c: bidir cells count in both directions; level on the max of
	// the two.
	for i := 0; i < c.Bidirs; i++ {
		k := argminSum(wc)
		wc.In[k]++
		wc.Out[k]++
	}
	return wc, nil
}

func argmin(xs []int) int {
	best := 0
	for i, x := range xs {
		if x < xs[best] {
			best = i
		}
		_ = x
	}
	return best
}

func argminSum(wc WrapperChains) int {
	best := 0
	for i := range wc.In {
		if wc.In[i]+wc.Out[i] < wc.In[best]+wc.Out[best] {
			best = i
		}
	}
	return best
}

// TestTime returns the scan test application time in cycles for the core
// under the given wrapper configuration, with shift-in of pattern k+1
// overlapped with shift-out of pattern k (the standard model of [12, 13]):
//
//	t = (1 + max(si, so)) · T + min(si, so)
func TestTime(c CoreTest, wc WrapperChains) int64 {
	si, so := int64(wc.MaxIn()), int64(wc.MaxOut())
	mx, mn := si, so
	if mn > mx {
		mx, mn = mn, mx
	}
	return (1+mx)*int64(c.Patterns) + mn
}

// ShiftedBitsPerPattern returns the bits moved per pattern across both
// directions: every chain's in-wire and out-wire is clocked for the full
// window of max(si, so) cycles, so the volume is 2 · W · depth — useful
// payload plus idle padding.
func (w WrapperChains) ShiftedBitsPerPattern() int64 {
	depth := w.MaxIn()
	if w.MaxOut() > depth {
		depth = w.MaxOut()
	}
	return 2 * int64(w.Width()) * int64(depth)
}

// IdleBitsPerPattern returns the padding bits per pattern: the shifted
// volume minus the useful payload, i.e. Σ_k (depth − in_k) + (depth − out_k)
// over the common shift window. Zero exactly when every chain has equal
// scan-in and scan-out length — the paper's perfectly-balanced assumption.
func (w WrapperChains) IdleBitsPerPattern() int64 {
	return w.ShiftedBitsPerPattern() - w.UsefulBitsShifted()
}

// UsefulBitsShifted returns in+out payload bits per pattern across all
// chains (equal to the core's UsefulBitsPerPattern when the configuration
// covers all cells).
func (w WrapperChains) UsefulBitsShifted() int64 {
	return sumOf(w.In) + sumOf(w.Out)
}
