package coopt

import (
	"fmt"
	"math"
	"sort"
)

// Placement is one core's slot in the packed schedule: the wrapper
// configuration chosen for it, the TAM lines it occupies, and its time
// window.
type Placement struct {
	Core   string `json:"core"`
	Width  int    `json:"width"`
	Lines  []int  `json:"lines"`
	Start  int64  `json:"start"`
	Finish int64  `json:"finish"`
	Power  int64  `json:"power"`
	// IdleBits is the wrapper-level idle data inside this rectangle: the
	// shifted volume minus the useful payload, over all patterns.
	IdleBits int64 `json:"idle_bits"`
}

// Packing is the raw packer output before the schedule report dresses it.
type Packing struct {
	TAMWidth   int
	TotalTime  int64
	LowerBound int64
	// TDVBits is the total data volume clocked on the TAM over the
	// schedule: every one of the W lines, both directions, for the whole
	// makespan — 2·W·TotalTime.
	TDVBits int64
	// UsefulBits is Σ T·(2S + I + O + 2B) over the scheduled cores: every
	// core pays its own scan and port bits once per pattern. It differs
	// from the paper's Equation 4 (core.SOC.TDVModular) by exactly one
	// named term,
	//
	//	TDVModular = UsefulBits + Σ_P T_P·(Σ_{C∈Child(P)} PortBits(C)
	//	                                   − [P tester-accessible]·PortBits(P))
	//
	// because Equation 4 also charges each module its children's ports
	// (ExTest) and waives the ports of a tester-accessible module. The
	// term is 0 on nine of the ten ITC'02 SOCs; TestUsefulBitsMatchEquation4
	// holds the identity.
	UsefulBits int64
	// WrapperIdleBits is Σ per-placement IdleBits: padding inside the
	// rectangles because wrapper chains cannot always balance.
	WrapperIdleBits int64
	// TAMIdleBits is the slack outside the rectangles: lines allocated to
	// nobody while the schedule runs — 2·W·TotalTime − Σ 2·wᵢ·tᵢ.
	TAMIdleBits int64
	Placements  []Placement
}

// Pack schedules the cores onto a TAM of width w with the diagonal-length
// heuristic of 1008.4446: rectangles are placed in descending order of
// the diagonal length √(width² + time²) of their preferred (widest
// usable) configuration, each onto the lines that let it finish earliest,
// trying every staircase configuration and keeping the one with the
// earliest finish (ties: narrower width, then earlier start).
//
// Constraints: an optional power budget — the summed power proxy of
// concurrently running cores never exceeds it, enforced by delaying a
// core past the finishes of running cores (the power-constrained packing
// of 1008.4448) — and optional precedence
// edges, honored by only placing cores whose predecessors are already
// placed and starting them no earlier than the latest predecessor finish.
//
// Everything is deterministic: the order is a total order (diagonal, then
// name), line selection prefers lower indices, and no randomness or clock
// is consulted.
func Pack(cores []Core, w int, powerBudget int64, precedence [][2]string) (*Packing, error) {
	if err := (Options{TAMWidth: w, PowerBudget: powerBudget}).Validate(); err != nil {
		return nil, err
	}
	byName := make(map[string]int, len(cores))
	for i, c := range cores {
		if _, dup := byName[c.Name]; dup {
			return nil, fmt.Errorf("coopt: duplicate core %q", c.Name)
		}
		if len(c.Configs) == 0 {
			return nil, fmt.Errorf("coopt: core %q has no wrapper configuration fitting width %d", c.Name, w)
		}
		for j, cfg := range c.Configs {
			if cfg.Width < 1 || cfg.Width > w || cfg.Time < 0 {
				return nil, fmt.Errorf("coopt: core %q configuration of width %d and time %d does not fit width %d",
					c.Name, cfg.Width, cfg.Time, w)
			}
			if j > 0 && (cfg.Width <= c.Configs[j-1].Width || cfg.Time >= c.Configs[j-1].Time) {
				return nil, fmt.Errorf("coopt: core %q configurations are not a staircase (ascending width, strictly decreasing time)", c.Name)
			}
		}
		if c.Power < 0 {
			return nil, fmt.Errorf("coopt: core %q has negative power %d", c.Name, c.Power)
		}
		if powerBudget > 0 && c.Power > powerBudget {
			return nil, fmt.Errorf("coopt: core %q alone exceeds the power budget (%d > %d)",
				c.Name, c.Power, powerBudget)
		}
		byName[c.Name] = i
	}
	preds, err := buildPrecedence(cores, byName, precedence)
	if err != nil {
		return nil, err
	}

	// Descending diagonal of the preferred (widest ≤ w, i.e. fastest)
	// configuration; name breaks ties so the order is total.
	order := make([]int, len(cores))
	for i := range order {
		order[i] = i
	}
	diag := make([]float64, len(cores))
	for i, c := range cores {
		pref := c.Configs[len(c.Configs)-1]
		diag[i] = math.Sqrt(float64(pref.Width)*float64(pref.Width) + float64(pref.Time)*float64(pref.Time))
	}
	sort.SliceStable(order, func(a, b int) bool {
		x, y := order[a], order[b]
		if diag[x] != diag[y] {
			return diag[x] > diag[y]
		}
		return cores[x].Name < cores[y].Name
	})

	pk := &Packing{TAMWidth: w}
	free := make([]int64, w) // per-line next-free time
	placedAt := make(map[string]Placement, len(cores))
	placed := 0
	done := make([]bool, len(cores))
	for placed < len(cores) {
		// Next ready core in the heuristic order: all predecessors placed.
		pick := -1
		for _, i := range order {
			if done[i] {
				continue
			}
			ready := true
			for _, p := range preds[i] {
				if !done[p] {
					ready = false
					break
				}
			}
			if ready {
				pick = i
				break
			}
		}
		if pick < 0 {
			return nil, fmt.Errorf("coopt: precedence cycle among the unplaced cores")
		}
		c := cores[pick]
		floor := int64(0) // earliest legal start: predecessors must finish
		for _, p := range preds[pick] {
			if f := placedAt[cores[p].Name].Finish; f > floor {
				floor = f
			}
		}
		best, ok := Placement{}, false
		var bestLines []int
		for _, cfg := range c.Configs {
			lines, start := earliestSlot(free, cfg.Width, floor)
			start = powerFeasibleStart(pk.Placements, start, cfg.Time, c.Power, powerBudget)
			finish := start + cfg.Time
			if !ok || finish < best.Finish ||
				(finish == best.Finish && cfg.Width < best.Width) ||
				(finish == best.Finish && cfg.Width == best.Width && start < best.Start) {
				best = Placement{
					Core: c.Name, Width: cfg.Width, Start: start, Finish: finish,
					Power:    c.Power,
					IdleBits: cfg.IdlePerPattern * int64(c.Test.Patterns),
				}
				bestLines = lines
				ok = true
			}
		}
		best.Lines = bestLines
		for _, l := range bestLines {
			free[l] = best.Finish
		}
		pk.Placements = append(pk.Placements, best)
		placedAt[c.Name] = best
		done[pick] = true
		placed++
		if best.Finish > pk.TotalTime {
			pk.TotalTime = best.Finish
		}
	}

	sort.Slice(pk.Placements, func(a, b int) bool {
		x, y := pk.Placements[a], pk.Placements[b]
		if x.Start != y.Start {
			return x.Start < y.Start
		}
		return x.Core < y.Core
	})
	pk.LowerBound = LowerBound(cores, w)
	pk.TDVBits = 2 * int64(w) * pk.TotalTime
	var rectBits int64
	for _, p := range pk.Placements {
		rectBits += 2 * int64(p.Width) * (p.Finish - p.Start)
		pk.WrapperIdleBits += p.IdleBits
	}
	for _, c := range cores {
		pk.UsefulBits += c.Useful()
	}
	pk.TAMIdleBits = pk.TDVBits - rectBits
	return pk, nil
}

// earliestSlot picks the width lines that admit the earliest start at or
// after floor: the lines with the smallest next-free times (lowest index
// on ties), whose maximum is the start. Returned lines are ascending.
func earliestSlot(free []int64, width int, floor int64) (lines []int, start int64) {
	idx := make([]int, len(free))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return free[idx[a]] < free[idx[b]] })
	lines = append([]int(nil), idx[:width]...)
	sort.Ints(lines)
	start = floor
	for _, l := range lines {
		if free[l] > start {
			start = free[l]
		}
	}
	return lines, start
}

// powerFeasibleStart returns the earliest start ≥ start at which running
// the core for dur under the budget is legal: whenever the concurrent
// power sum would overflow, the start slides to the next finish of an
// overlapping placement (event-point scan — the optimum never lies
// between finishes).
func powerFeasibleStart(placed []Placement, start, dur, power, budget int64) int64 {
	if budget <= 0 || power <= 0 {
		return start
	}
	for {
		over, nextEvent := int64(0), int64(math.MaxInt64)
		for _, p := range placed {
			if p.Start < start+dur && p.Finish > start {
				over += p.Power
				if p.Finish < nextEvent {
					nextEvent = p.Finish
				}
			}
		}
		if over+power <= budget {
			return start
		}
		start = nextEvent
	}
}

// buildPrecedence resolves the name pairs onto core indices and rejects
// unknown names and self-edges (cycles surface during packing: a cycle
// leaves cores permanently not-ready).
func buildPrecedence(cores []Core, byName map[string]int, precedence [][2]string) ([][]int, error) {
	preds := make([][]int, len(cores))
	for _, pr := range precedence {
		b, ok := byName[pr[0]]
		if !ok {
			return nil, fmt.Errorf("coopt: precedence names unknown core %q", pr[0])
		}
		a, ok := byName[pr[1]]
		if !ok {
			return nil, fmt.Errorf("coopt: precedence names unknown core %q", pr[1])
		}
		if a == b {
			return nil, fmt.Errorf("coopt: precedence self-edge on %q", pr[0])
		}
		preds[a] = append(preds[a], b)
	}
	return preds, nil
}

// LowerBound is the classic packing bound the acceptance gate measures
// against: no schedule beats the bottleneck core (its fastest
// configuration on the full TAM), and no schedule beats spreading the
// total minimum rectangle area perfectly over the W lines.
func LowerBound(cores []Core, w int) int64 {
	var bottleneck, area int64
	for _, c := range cores {
		fast := c.Configs[len(c.Configs)-1].Time // widest = fastest
		if fast > bottleneck {
			bottleneck = fast
		}
		minArea := c.Configs[0].Area()
		for _, cfg := range c.Configs[1:] {
			if a := cfg.Area(); a < minArea {
				minArea = a
			}
		}
		area += minArea
	}
	lb := (area + int64(w) - 1) / int64(w)
	if bottleneck > lb {
		lb = bottleneck
	}
	return lb
}
