package coopt

import (
	"fmt"
	"testing"
)

// maxBruteCores bounds PackOptimal: the exhaustive search is exponential
// in the core count and exists only to certify the heuristic on small
// instances.
const maxBruteCores = 5

// PackOptimal returns the minimum makespan of any valid schedule of the
// cores on a TAM of width w (optionally under a power budget), by
// exhaustive search. It is the ground truth the heuristic is tested
// against: Pack must never beat it, because PackOptimal is a true optimum
// for the line model.
//
// The search uses the capacity relaxation: a schedule is valid iff at
// every instant the summed widths of running cores is ≤ w (and the summed
// power ≤ budget). Any capacity-feasible set of intervals can be assigned
// to concrete, possibly non-contiguous TAM lines greedily in start order
// — a core starting at time t takes any free lines, and capacity
// feasibility guarantees enough lines are free — so the capacity optimum
// equals the line-model optimum. Within the relaxation, some optimal
// schedule is left-justified (every start is 0 or another core's finish),
// so the DFS enumerates placements in nondecreasing start order over
// exactly those event points, with branch-and-bound on the incumbent.
func PackOptimal(cores []Core, w int, powerBudget int64) (int64, error) {
	if len(cores) == 0 {
		return 0, fmt.Errorf("coopt: no cores to pack")
	}
	if len(cores) > maxBruteCores {
		return 0, fmt.Errorf("coopt: PackOptimal is capped at %d cores, got %d", maxBruteCores, len(cores))
	}
	if w < 1 {
		return 0, fmt.Errorf("coopt: TAM width %d outside 1..%d", w, MaxTAMWidth)
	}
	for _, c := range cores {
		if len(c.Configs) == 0 {
			return 0, fmt.Errorf("coopt: core %q has no wrapper configuration fitting width %d", c.Name, w)
		}
		if powerBudget > 0 && c.Power > powerBudget {
			return 0, fmt.Errorf("coopt: core %q alone exceeds the power budget (%d > %d)",
				c.Name, c.Power, powerBudget)
		}
	}

	type slot struct {
		start, finish int64
		width         int
		power         int64
	}
	placed := make([]slot, 0, len(cores))
	used := make([]bool, len(cores))
	best := upperBoundSerial(cores)

	// feasible reports whether adding cand keeps the width and power
	// capacities respected at every instant; checking at the starts of
	// overlapping intervals (and cand's own start) suffices because the
	// concurrent set only changes at starts.
	feasible := func(cand slot) bool {
		checkAt := func(t int64) bool {
			if t < cand.start || t >= cand.finish {
				return true
			}
			width, pow := cand.width, cand.power
			for _, s := range placed {
				if s.start <= t && t < s.finish {
					width += s.width
					pow += s.power
				}
			}
			return width <= w && (powerBudget <= 0 || pow <= powerBudget)
		}
		if !checkAt(cand.start) {
			return false
		}
		for _, s := range placed {
			if !checkAt(s.start) {
				return false
			}
		}
		return true
	}

	var dfs func(lastStart, makespan int64)
	dfs = func(lastStart, makespan int64) {
		if makespan >= best {
			return // bound: cannot improve the incumbent
		}
		done := true
		for i, c := range cores {
			if used[i] {
				continue
			}
			done = false
			// Candidate starts: left-justified event points at or after the
			// last placed start (nondecreasing start order is WLOG).
			starts := []int64{lastStart}
			for _, s := range placed {
				if s.finish >= lastStart {
					starts = append(starts, s.finish)
				}
			}
			for _, cfg := range c.Configs {
				if cfg.Width > w {
					continue
				}
				for _, st := range starts {
					cand := slot{start: st, finish: st + cfg.Time, width: cfg.Width, power: c.Power}
					if !feasible(cand) {
						continue
					}
					used[i] = true
					placed = append(placed, cand)
					m := makespan
					if cand.finish > m {
						m = cand.finish
					}
					dfs(st, m)
					placed = placed[:len(placed)-1]
					used[i] = false
				}
			}
		}
		if done && makespan < best {
			best = makespan
		}
	}
	dfs(0, 0)
	return best, nil
}

// upperBoundSerial is a trivially valid makespan: every core serial on
// its narrowest configuration, plus one so the first real schedule
// strictly improves it.
func upperBoundSerial(cores []Core) int64 {
	var t int64
	for _, c := range cores {
		t += c.Configs[0].Time
	}
	return t + 1
}

// TestHeuristicNeverBeatsOptimal exhaustively enumerates small rectangle
// instances and checks the ordering PackOptimal ≤ Pack ≤ 2·LowerBound and
// LowerBound ≤ PackOptimal. A heuristic "beating" the exhaustive optimum
// would mean one of the two packers builds invalid schedules.
func TestHeuristicNeverBeatsOptimal(t *testing.T) {
	widths := []int{1, 2, 3}
	times := []int64{2, 3, 7}
	tamW := 4

	// All instances of exactly 3 rectangles over the width×time grid
	// (9 shapes → 729 instances), plus a 5-rectangle spot-check below.
	shapes := make([][2]int64, 0, 9)
	for _, w := range widths {
		for _, tt := range times {
			shapes = append(shapes, [2]int64{int64(w), tt})
		}
	}
	run := func(t *testing.T, idx []int) {
		t.Helper()
		cores := make([]Core, len(idx))
		for i, k := range idx {
			cores[i] = rect(fmt.Sprintf("r%d", i), int(shapes[k][0]), shapes[k][1], 0)
		}
		opt, err := PackOptimal(cores, tamW, 0)
		if err != nil {
			t.Fatal(err)
		}
		pk, err := Pack(cores, tamW, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkValid(t, pk)
		lb := LowerBound(cores, tamW)
		if opt < lb {
			t.Fatalf("instance %v: optimum %d below lower bound %d", idx, opt, lb)
		}
		if pk.TotalTime < opt {
			t.Fatalf("instance %v: heuristic %d beats exhaustive optimum %d", idx, pk.TotalTime, opt)
		}
		if pk.TotalTime > 2*lb {
			t.Fatalf("instance %v: heuristic %d exceeds 2x lower bound %d", idx, pk.TotalTime, lb)
		}
	}
	for a := 0; a < len(shapes); a++ {
		for b := 0; b < len(shapes); b++ {
			for c := 0; c < len(shapes); c++ {
				run(t, []int{a, b, c})
			}
		}
	}
	// 5-rectangle instances along a fixed diagonal slice of the grid (full
	// enumeration at 5 rects is 9^5 × exponential DFS — too slow for tier 1).
	for off := 0; off < len(shapes); off++ {
		idx := make([]int, 5)
		for i := range idx {
			idx[i] = (off + 2*i) % len(shapes)
		}
		run(t, idx)
	}
}

// TestOptimalWithStaircaseChoice gives the brute force a real width/time
// trade-off per rectangle and checks the heuristic still never wins.
func TestOptimalWithStaircaseChoice(t *testing.T) {
	mk := func(name string) Core {
		return Core{
			Name: name,
			Configs: []Config{
				{Width: 1, Time: 12},
				{Width: 2, Time: 6},
				{Width: 4, Time: 3},
			},
		}
	}
	cores := []Core{mk("a"), mk("b"), mk("c"), mk("d")}
	opt, err := PackOptimal(cores, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	pk, err := Pack(cores, 4, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkValid(t, pk)
	// Total minimum area is 4·12=48 over width 4 → LB 12, and the perfect
	// packing (each core on 1 line, or pairs on 2 lines twice, ...) hits it.
	if opt != 12 {
		t.Fatalf("optimum = %d, want 12", opt)
	}
	if pk.TotalTime < opt || pk.TotalTime > 24 {
		t.Fatalf("heuristic %d outside [12, 24]", pk.TotalTime)
	}
}

// TestOptimalPowerConstrained: the power budget forces serialization the
// width capacity alone would not.
func TestOptimalPowerConstrained(t *testing.T) {
	cores := []Core{rect("a", 1, 10, 6), rect("b", 1, 10, 6)}
	opt, err := PackOptimal(cores, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	if opt != 20 {
		t.Fatalf("power-constrained optimum = %d, want 20 (serial)", opt)
	}
	unconstrained, err := PackOptimal(cores, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if unconstrained != 10 {
		t.Fatalf("unconstrained optimum = %d, want 10 (parallel)", unconstrained)
	}
}

func TestOptimalGuards(t *testing.T) {
	if _, err := PackOptimal(nil, 4, 0); err == nil {
		t.Fatal("empty instance accepted")
	}
	six := make([]Core, 6)
	for i := range six {
		six[i] = rect(fmt.Sprintf("r%d", i), 1, 1, 0)
	}
	if _, err := PackOptimal(six, 4, 0); err == nil {
		t.Fatal("over-cap instance accepted")
	}
	if _, err := PackOptimal([]Core{rect("hot", 1, 1, 99)}, 4, 10); err == nil {
		t.Fatal("core alone above the budget accepted")
	}
}
