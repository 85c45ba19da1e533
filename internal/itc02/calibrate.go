package itc02

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
)

// SynthesisResult is a reconstructed SOC profile plus calibration notes.
type SynthesisResult struct {
	SOC *core.SOC
	// BenefitParityAdjusted records that the published benefit (and
	// penalty) were odd and were lowered by one: Equation 8's output
	// 2·Σ(T_mono−T_A)·S_A is necessarily even, so an odd printed value
	// cannot be reproduced exactly by any integer profile. The published
	// TDV_modular and TDV_mono_opt are still matched exactly.
	BenefitParityAdjusted bool
}

// Synthesize reconstructs a per-core profile for one Table 4 SOC such that
// the Equations 3, 7, 8 and 4 computations over the profile reproduce the
// published TDV_mono_opt, TDV_penalty, TDV_benefit and TDV_modular (the
// benefit/penalty pair ±1 where parity forces it; see SynthesisResult), the
// published core count, and the published normalized pattern-count
// deviation to its two printed decimals.
//
// The profile is flat (a zero-port container on top of row.Cores cores):
// the real ITC'02 hierarchy information is not in the paper for these SOCs,
// and the four aggregate equations are insensitive to where in the
// hierarchy the port/scan/pattern mass sits.
func Synthesize(row PublishedRow) (*SynthesisResult, error) {
	modular := row.ConsistentModular()
	// All rows except p22810 print an identity-consistent absolute value;
	// see PublishedRow.ConsistentModular for the p22810 erratum.
	if modular != row.TDVModular && row.Name != "p22810" {
		return nil, fmt.Errorf("itc02: row %s violates TDV_modular = opt + penalty - benefit", row.Name)
	}
	if row.TDVMonoOpt%2 != 0 {
		return nil, fmt.Errorf("itc02: row %s has odd TDV_mono_opt; cannot express as 2S·T", row.Name)
	}
	benT, penT := row.Benefit, row.Penalty
	adjusted := false
	if benT%2 != 0 {
		benT--
		penT--
		adjusted = true
	}
	if penT < 0 || benT < 0 || benT >= row.TDVMonoOpt {
		return nil, fmt.Errorf("itc02: row %s has out-of-range penalty/benefit", row.Name)
	}

	var (
		ts  []int
		err error
	)
	if row.Name == "g12710" {
		ts = append([]int(nil), G12710Patterns...)
		if len(ts) != row.Cores {
			return nil, fmt.Errorf("itc02: g12710 pattern list length mismatch")
		}
		if row.TDVMonoOpt%(2*int64(maxInt(ts))) != 0 {
			return nil, fmt.Errorf("itc02: g12710 T_max does not divide opt/2")
		}
	} else {
		ts, err = buildPatternCounts(row, benT)
		if err != nil {
			return nil, err
		}
	}
	tmax := int64(maxInt(ts))
	c := row.TDVMonoOpt / (2 * tmax) // total scan cells
	q := (row.TDVMonoOpt - benT) / 2 // required Σ S_i·T_i

	ss, err := solveScan(ts, c, q)
	if err != nil {
		return nil, fmt.Errorf("itc02: row %s scan solve: %w", row.Name, err)
	}
	isos, err := solveISO(ts, penT)
	if err != nil {
		return nil, fmt.Errorf("itc02: row %s penalty solve: %w", row.Name, err)
	}

	top := &core.Module{Name: row.Name + "-top"}
	for i := range ts {
		iso := isos[i]
		in := (iso*11 + 10) / 20 // ~55% inputs
		out := iso - in
		top.Children = append(top.Children, &core.Module{
			Name: fmt.Sprintf("%s-core%d", row.Name, i+1),
			Params: core.Params{
				Inputs:    int(in),
				Outputs:   int(out),
				ScanCells: int(ss[i]),
				Patterns:  ts[i],
			},
		})
	}
	s := &core.SOC{Name: row.Name, Top: top}

	// Verify the reconstruction end to end before handing it out.
	if got := s.TDVMonoOpt(); got != row.TDVMonoOpt {
		return nil, fmt.Errorf("itc02: %s: opt %d != %d", row.Name, got, row.TDVMonoOpt)
	}
	if got := s.Penalty(); got != penT {
		return nil, fmt.Errorf("itc02: %s: penalty %d != %d", row.Name, got, penT)
	}
	if got := s.Benefit(int(tmax)); got != benT {
		return nil, fmt.Errorf("itc02: %s: benefit %d != %d", row.Name, got, benT)
	}
	if got := s.TDVModular(); got != modular {
		return nil, fmt.Errorf("itc02: %s: modular %d != %d", row.Name, got, modular)
	}
	if got := s.NormStdevPatterns(); math.Abs(got-row.NormStdev) > 0.005 {
		return nil, fmt.Errorf("itc02: %s: norm stdev %.4f not within 0.005 of %.2f", row.Name, got, row.NormStdev)
	}
	return &SynthesisResult{SOC: s, BenefitParityAdjusted: adjusted}, nil
}

// buildPatternCounts constructs N per-core pattern counts whose maximum
// divides opt/2 (so the total scan cell count is integral), whose weighted
// structure admits the required Σ S·T, and whose normalized deviation
// matches the published value. Layout: [T_max, T_a, T_a+1, tunables...]
// where T_a = floor(Q/C) anchors the two scan-bearing cores and the
// remaining zero-scan cores are free knobs for the deviation target.
func buildPatternCounts(row PublishedRow, benT int64) ([]int, error) {
	n := row.Cores
	if n < 4 {
		return nil, fmt.Errorf("itc02: need at least 4 cores, row has %d", n)
	}
	ratio := float64(row.TDVMonoOpt-benT) / float64(row.TDVMonoOpt)
	tmax, err := chooseTmax(row.TDVMonoOpt/2, ratio, n)
	if err != nil {
		return nil, err
	}
	c := row.TDVMonoOpt / (2 * tmax)
	q := (row.TDVMonoOpt - benT) / 2
	ta := q / c // floor of the scan-weighted mean pattern count
	if ta < 1 || ta+1 > tmax {
		return nil, fmt.Errorf("itc02: anchor pattern count %d out of range (tmax %d)", ta, tmax)
	}

	// Bisect the geometric decay of the tunable cores to hit the deviation.
	build := func(lambda float64) []int {
		ts := []int{int(tmax), int(ta), int(ta + 1)}
		k := n - 3
		for j := 0; j < k; j++ {
			frac := float64(j+1) / float64(k)
			v := int(math.Round(float64(tmax) * math.Exp(-lambda*frac)))
			if v < 1 {
				v = 1
			}
			if v > int(tmax) {
				v = int(tmax)
			}
			ts = append(ts, v)
		}
		return ts
	}
	lo, hi := 0.0, 40.0
	for iter := 0; iter < 200; iter++ {
		mid := (lo + hi) / 2
		if core.NormStdev(build(mid)) < row.NormStdev {
			lo = mid
		} else {
			hi = mid
		}
	}
	ts := build((lo + hi) / 2)
	// Integer rounding makes the bisection land near, not on, the target;
	// hill-climb the tunable entries (indices 3..) one step at a time.
	ts = tuneNstd(ts, 3, int(tmax), row.NormStdev)
	if math.Abs(core.NormStdev(ts)-row.NormStdev) > 0.005 {
		return nil, fmt.Errorf("itc02: cannot reach norm stdev %.2f (best %.4f)", row.NormStdev, core.NormStdev(ts))
	}
	return ts, nil
}

// tuneNstd greedily nudges the tunable pattern counts (from index lo on,
// each within [1, tmax]) to bring the normalized deviation to the target.
func tuneNstd(ts []int, lo, tmax int, target float64) []int {
	best := append([]int(nil), ts...)
	bestErr := math.Abs(core.NormStdev(best) - target)
	for step := 0; step < 5000 && bestErr > 1e-4; step++ {
		improved := false
		for i := lo; i < len(best); i++ {
			for _, d := range []int{1, -1, 7, -7, 61, -61} {
				v := best[i] + d
				if v < 1 || v > tmax {
					continue
				}
				old := best[i]
				best[i] = v
				if e := math.Abs(core.NormStdev(best) - target); e < bestErr {
					bestErr = e
					improved = true
				} else {
					best[i] = old
				}
			}
		}
		if !improved {
			break
		}
	}
	return best
}

// chooseTmax picks a divisor of half (= opt/2) as the maximum pattern
// count: the scan-weighted mean M = tmax·ratio must leave room for the
// anchor pair, the scan-cell total must be at least 2, and among feasible
// divisors the one nearest (log-scale) to a realistic target of about 1200
// scan cells per core is preferred.
func chooseTmax(half int64, ratio float64, n int) (int64, error) {
	target := float64(half) / float64(1200*n)
	// A tiny T_max leaves too coarse a grid of integer pattern counts for
	// the deviation tuner; keep it in the hundreds at least.
	if target < 500 {
		target = 500
	}
	best := int64(0)
	bestDist := math.MaxFloat64
	for _, d := range divisorsOf(half) {
		m := float64(d) * ratio
		if m < 2 || m >= float64(d)-2 || half/d < 2 {
			continue
		}
		dist := math.Abs(math.Log(float64(d)) - math.Log(target))
		if dist < bestDist {
			bestDist = dist
			best = d
		}
	}
	if best == 0 {
		return 0, fmt.Errorf("itc02: no feasible T_max divisor of %d", half)
	}
	return best, nil
}

// solveScan finds non-negative integer scan-cell counts with Σ S_i = c and
// Σ S_i·T_i = q. For the synthesized layouts the anchor pair (indices 1, 2
// with consecutive pattern counts) admits a closed-form solution; for fixed
// externally given pattern lists (g12710) a bounded Diophantine search over
// single-core tweaks is used.
func solveScan(ts []int, c, q int64) ([]int64, error) {
	ss := make([]int64, len(ts))
	// Closed form on a consecutive pair (t, t+1): S_hi = q − c·t ∈ [0, c).
	for i := 0; i+1 < len(ts); i++ {
		for j := range ts {
			if j == i {
				continue
			}
			if ts[j] != ts[i]+1 {
				continue
			}
			t := int64(ts[i])
			if q < c*t || q >= c*(t+1) {
				continue
			}
			hi := q - c*t
			ss[j] = hi
			ss[i] = c - hi
			return ss, nil
		}
	}
	// General case: put mass on the extreme pattern counts and repair
	// divisibility with one tweak core.
	a, b := 0, 0 // argmin, argmax
	for i, t := range ts {
		if t < ts[a] {
			a = i
		}
		if t > ts[b] {
			b = i
		}
	}
	d := int64(ts[b] - ts[a])
	if d == 0 {
		if q != c*int64(ts[a]) {
			return nil, fmt.Errorf("uniform pattern counts cannot meet ΣS·T")
		}
		for i := range ss {
			ss[i] = c / int64(len(ss))
		}
		ss[0] += c - ss[0]*int64(len(ss))
		return ss, nil
	}
	for ci := range ts {
		if ci == a || ci == b {
			continue
		}
		for k := int64(0); k < d; k++ {
			cc := c - k
			qq := q - k*int64(ts[ci])
			num := qq - cc*int64(ts[a])
			if cc < 0 || num < 0 || num%d != 0 {
				continue
			}
			hi := num / d
			if hi > cc {
				continue
			}
			ss[ci] = k
			ss[b] = hi
			ss[a] = cc - hi
			balanceEqualPatterns(ts, ss)
			return ss, nil
		}
	}
	return nil, fmt.Errorf("no integer scan distribution for ΣS=%d, ΣST=%d", c, q)
}

// balanceEqualPatterns evens out scan cells across cores with identical
// pattern counts; it changes neither ΣS nor ΣS·T.
func balanceEqualPatterns(ts []int, ss []int64) {
	byT := map[int][]int{}
	for i, t := range ts {
		byT[t] = append(byT[t], i)
	}
	for _, idxs := range byT {
		if len(idxs) < 2 {
			continue
		}
		var total int64
		for _, i := range idxs {
			total += ss[i]
		}
		each := total / int64(len(idxs))
		rem := total - each*int64(len(idxs))
		for k, i := range idxs {
			ss[i] = each
			if int64(k) < rem {
				ss[i]++
			}
		}
	}
}

// solveISO finds non-negative per-core isolation costs (I+O+2B) with
// Σ T_i·ISO_i = pen: an even base distribution, greedy large-coin
// correction, then an exact finish on a coprime pattern-count pair.
func solveISO(ts []int, pen int64) ([]int64, error) {
	n := len(ts)
	isos := make([]int64, n)
	var sumT int64
	for _, t := range ts {
		sumT += int64(t)
	}
	if sumT <= 0 {
		return nil, fmt.Errorf("no pattern mass to carry the penalty")
	}
	// Pick the coprime knob pair with the smallest product and reserve
	// room on it so the exact finish can go negative locally.
	kc, kd, err := coprimePair(ts)
	if err != nil {
		return nil, err
	}
	reserve := int64(ts[kd]) // knob c may need to give back up to T_d − 1
	base := (pen - reserve*int64(ts[kc])) / sumT
	if base < 0 {
		base = 0
	}
	for i := range isos {
		isos[i] = base
	}
	isos[kc] += reserve
	rem := pen
	for i, iso := range isos {
		rem -= iso * int64(ts[i])
	}
	if rem < 0 {
		// Base overshot (tiny penalties): start from zero plus reserve.
		for i := range isos {
			isos[i] = 0
		}
		isos[kc] = reserve
		rem = pen - reserve*int64(ts[kc])
		if rem < 0 {
			return nil, fmt.Errorf("penalty %d too small for the knob reserve", pen)
		}
	}
	// Greedy large coins, biggest pattern counts first.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool { return ts[order[x]] > ts[order[y]] })
	for _, i := range order {
		if k := rem / int64(ts[i]); k > 0 {
			isos[i] += k
			rem -= k * int64(ts[i])
		}
	}
	// Exact finish: rem = x·T_c + y·T_d with y = rem·T_d⁻¹ mod T_c.
	if rem > 0 {
		tc, td := int64(ts[kc]), int64(ts[kd])
		inv, ok := modInverse(td%tc, tc)
		if !ok {
			return nil, fmt.Errorf("knob pair lost coprimality")
		}
		y := (rem % tc) * inv % tc
		x := (rem - y*td) / tc
		isos[kc] += x
		isos[kd] += y
		if isos[kc] < 0 || isos[kd] < 0 {
			return nil, fmt.Errorf("knob reserve insufficient: x=%d y=%d", x, y)
		}
	}
	var check int64
	for i, iso := range isos {
		if iso < 0 {
			return nil, fmt.Errorf("negative isolation cost on core %d", i)
		}
		check += iso * int64(ts[i])
	}
	if check != pen {
		return nil, fmt.Errorf("penalty solve off: %d != %d", check, pen)
	}
	return isos, nil
}

// coprimePair returns the indices of the coprime pattern-count pair with
// the smallest product.
func coprimePair(ts []int) (int, int, error) {
	bi, bj := -1, -1
	var bestProd int64 = math.MaxInt64
	for i := 0; i < len(ts); i++ {
		for j := i + 1; j < len(ts); j++ {
			if ts[i] < 2 && ts[j] < 2 {
				continue // gcd with 1 is fine, but a T=1 pair is degenerate
			}
			if gcd(ts[i], ts[j]) != 1 {
				continue
			}
			if p := int64(ts[i]) * int64(ts[j]); p < bestProd {
				bestProd = p
				bi, bj = i, j
			}
		}
	}
	if bi < 0 {
		return 0, 0, fmt.Errorf("no coprime pattern-count pair")
	}
	// Order so that the first is the smaller count (the modulus).
	if ts[bi] > ts[bj] {
		bi, bj = bj, bi
	}
	return bi, bj, nil
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// modInverse returns a⁻¹ mod m for coprime a, m (m > 1).
func modInverse(a, m int64) (int64, bool) {
	if m <= 1 {
		return 0, false
	}
	t, newT := int64(0), int64(1)
	r, newR := m, a%m
	for newR != 0 {
		qt := r / newR
		t, newT = newT, t-qt*newT
		r, newR = newR, r-qt*newR
	}
	if r != 1 {
		return 0, false
	}
	if t < 0 {
		t += m
	}
	return t, true
}

func maxInt(ts []int) int {
	m := ts[0]
	for _, t := range ts {
		if t > m {
			m = t
		}
	}
	return m
}

// divisorsOf enumerates every divisor of n (n ≥ 1) via trial-division
// factorization, sorted ascending.
func divisorsOf(n int64) []int64 {
	type pf struct {
		p int64
		k int
	}
	var fs []pf
	m := n
	for p := int64(2); p*p <= m; p++ {
		if m%p == 0 {
			k := 0
			for m%p == 0 {
				m /= p
				k++
			}
			fs = append(fs, pf{p, k})
		}
	}
	if m > 1 {
		fs = append(fs, pf{m, 1})
	}
	divs := []int64{1}
	for _, f := range fs {
		cur := len(divs)
		pp := int64(1)
		for i := 0; i < f.k; i++ {
			pp *= f.p
			for j := 0; j < cur; j++ {
				divs = append(divs, divs[j]*pp)
			}
		}
	}
	sort.Slice(divs, func(i, j int) bool { return divs[i] < divs[j] })
	return divs
}

// SOCByName returns the SOC profile for a Table 4 benchmark: the embedded
// Table 3 data for p34392, a calibrated synthesis for the others.
func SOCByName(name string) (*core.SOC, error) {
	if name == "p34392" {
		return P34392(), nil
	}
	row, ok := PublishedRowByName(name)
	if !ok {
		return nil, fmt.Errorf("itc02: unknown SOC %q", name)
	}
	res, err := Synthesize(row)
	if err != nil {
		return nil, err
	}
	return res.SOC, nil
}

// AllSOCs returns all ten Table 4 SOCs in table order.
func AllSOCs() ([]*core.SOC, error) {
	var out []*core.SOC
	for _, row := range PublishedTable4() {
		s, err := SOCByName(row.Name)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}
