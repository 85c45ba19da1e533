// Package bench89 provides deterministic, seeded synthetic stand-ins for
// the ISCAS'89 benchmark circuits used by the paper's SOC1 and SOC2
// experiments (s713, s953, s1423, s5378, s13207, s15850).
//
// The original netlists are external data this offline reproduction cannot
// ship, so each stand-in is generated with exactly the published primary
// input / primary output / scan-cell counts (which are what the TDV
// formulas consume) and a realistic multi-cone combinational structure for
// the live-ATPG experiments. Gate counts for the three largest circuits are
// reduced from the originals to keep end-to-end ATPG runs fast; the paper's
// mechanism (pattern-count variation across cones and cores, Equation 2)
// does not depend on absolute gate count. See DESIGN.md, "Reproduction
// constraints and substitutions".
package bench89

import (
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/netlist"
	"repro/internal/obs"
)

// Profile describes a synthetic circuit to generate.
type Profile struct {
	Name    string
	Inputs  int
	Outputs int
	DFFs    int
	// Gates is the approximate number of combinational gates.
	Gates int
	// Seed fixes the generated structure.
	Seed int64
}

// standard lists the stand-in profiles with the published port/scan counts
// from the paper's Tables 1 and 2. Gate counts follow the original circuits
// (s713: 393, s953: 395, s1423: 657) but are scaled down for the three
// large cores (originals: 2779, 7951, 9772).
var standard = []Profile{
	{Name: "s713", Inputs: 35, Outputs: 23, DFFs: 19, Gates: 393, Seed: 713},
	{Name: "s953", Inputs: 16, Outputs: 23, DFFs: 29, Gates: 395, Seed: 953},
	{Name: "s1423", Inputs: 17, Outputs: 5, DFFs: 74, Gates: 657, Seed: 1423},
	{Name: "s5378", Inputs: 35, Outputs: 49, DFFs: 179, Gates: 1500, Seed: 5378},
	{Name: "s13207", Inputs: 31, Outputs: 121, DFFs: 669, Gates: 2400, Seed: 13207},
	{Name: "s15850", Inputs: 14, Outputs: 87, DFFs: 597, Gates: 2600, Seed: 15850},
}

// StandardProfiles returns the six stand-in profiles (copies).
func StandardProfiles() []Profile {
	return append([]Profile(nil), standard...)
}

// ProfileByName looks up a standard profile by circuit name.
func ProfileByName(name string) (Profile, bool) {
	for _, p := range standard {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// Generate builds the synthetic circuit for the profile. The result is
// deterministic in the profile (including its seed), finalized, and has
// exactly the requested numbers of inputs, outputs and flip-flops.
func Generate(p Profile) (*netlist.Circuit, error) {
	return GenerateObserved(p, nil)
}

// GenerateObserved is Generate with generation statistics reported through
// an observability collector: a "bench89.generate" span, gate/circuit
// counters, a cone-budget histogram, and a "bench89.generated" event with
// the realized structure. A nil collector is exactly Generate.
func GenerateObserved(p Profile, col *obs.Collector) (*netlist.Circuit, error) {
	if p.Inputs <= 0 || p.Outputs <= 0 || p.Gates <= 0 || p.DFFs < 0 {
		return nil, fmt.Errorf("bench89: invalid profile %+v", p)
	}
	if p.Gates < p.Outputs {
		return nil, fmt.Errorf("bench89: profile %s needs at least %d gates for its outputs", p.Name, p.Outputs)
	}
	span := col.StartSpan("bench89.generate")
	hCone := col.Histogram("bench89.cone.budget", obs.ExpBounds(1, 2, 13)...)
	rng := rand.New(rand.NewSource(p.Seed))
	b := netlist.NewBuilder(p.Name)

	// Net k < nSrc is a source (the inputs i<k>, then the forward-referenced
	// flip-flop outputs ff<k>), the rest are gates g<k>; prob[k] is net k's.
	nSrc, nNets := p.Inputs+p.DFFs, p.Inputs+p.DFFs+p.Gates+p.Gates/4
	b.Grow(nNets, nNets+p.Outputs, 2*nNets)
	b.AddNets(p.Inputs, counted("i"))
	b.AddNets(p.DFFs, counted("ff"))
	for i := 0; i < p.Inputs; i++ {
		b.InputNet(int32(i))
	}

	// The circuit is built as one logic cone per sink (primary output or
	// flip-flop data input), the way ATPG sees a design. Each cone is a
	// mostly-tree random network over a varying number of support signals,
	// with a limited fraction of leaves drawn from previously built cones
	// (creating fanout, sharing and mild reconvergence). Tree-dominated
	// cones keep the logic realistically testable — a flat random DAG
	// saturates with reconvergent masking and untestable faults — while
	// the varying cone widths produce the per-cone pattern-count variation
	// that the paper's whole analysis is about.
	//
	// Gate types are chosen probability-aware: the generator tracks an
	// (independence-approximated) signal probability per net and picks
	// the type keeping the output closest to 1/2, randomly perturbed.
	prob := make([]float64, nSrc, nNets)
	for k := range prob {
		prob[k] = 0.5
	}
	newGate := func(typ netlist.GateType, in []int32, outProb float64) int32 {
		k := int32(len(prob))
		prob = append(prob, outProb)
		b.GateNet(k, typ, in...)
		return k
	}
	combine := func(x, y int32) int32 {
		px, py := prob[x], prob[y]
		type cand struct {
			typ netlist.GateType
			out float64
		}
		cands := []cand{
			{netlist.And, px * py},
			{netlist.Nand, 1 - px*py},
			{netlist.Or, 1 - (1-px)*(1-py)},
			{netlist.Nor, (1 - px) * (1 - py)},
			{netlist.Xor, px*(1-py) + py*(1-px)},
		}
		best, bestScore := cands[0], 2.0
		for _, c := range cands {
			if score := abs(c.out-0.5) + 0.10*rng.Float64(); score < bestScore {
				bestScore, best = score, c
			}
		}
		return newGate(best.typ, []int32{x, y}, best.out)
	}

	sinks := p.Outputs + p.DFFs
	// Allocate the gate budget over sinks with a skewed (roughly
	// geometric) weight so cone sizes vary widely.
	weights := make([]float64, sinks)
	var wsum float64
	for i := range weights {
		weights[i] = 0.25 + rng.ExpFloat64()
		wsum += weights[i]
	}
	var leaves, wide []int32
	buildCone := func(budget int) int32 {
		// Leaves: mostly fresh sources, some cross-links into earlier
		// cones. A binary tree over k leaves uses k-1 combine gates.
		k := budget
		if k < 1 {
			k = 1
		}
		leaves = leaves[:0]
		for len(leaves) < k+1 {
			if gates := len(prob) - nSrc; gates > 0 && rng.Float64() < 0.18 {
				leaves = append(leaves, int32(nSrc+rng.Intn(gates)))
			} else {
				leaves = append(leaves, int32(rng.Intn(nSrc)))
			}
		}
		roots := leaves
		for len(roots) > 1 {
			// Occasionally fold several signals into one wide gate. Wide
			// AND/NOR gates produce low-probability internal signals whose
			// faults need near-unique patterns — the "hard-to-test logic
			// cone" of the paper's Section 3 that drives up pattern counts.
			if len(roots) >= 5 && rng.Float64() < 0.08 {
				m := 3 + rng.Intn(4)
				if m > len(roots)-1 {
					m = len(roots) - 1
				}
				wide = wide[:0]
				pAll, qAll := 1.0, 1.0
				for n := 0; n < m; n++ {
					idx := rng.Intn(len(roots))
					w := roots[idx]
					roots[idx] = roots[len(roots)-1]
					roots = roots[:len(roots)-1]
					wide = append(wide, w)
					pAll *= prob[w]
					qAll *= 1 - prob[w]
				}
				var g int32
				if rng.Intn(2) == 0 {
					g = newGate(netlist.And, wide, pAll)
				} else {
					g = newGate(netlist.Nor, wide, qAll)
				}
				roots = append(roots, g)
				continue
			}
			i := rng.Intn(len(roots))
			j := rng.Intn(len(roots) - 1)
			if j >= i {
				j++
			}
			merged := combine(roots[i], roots[j])
			// Occasionally insert an inverter for structural variety.
			if rng.Float64() < 0.10 {
				merged = newGate(netlist.Not, []int32{merged}, 1-prob[merged])
			}
			// Replace i, delete j.
			roots[i] = merged
			roots[j] = roots[len(roots)-1]
			roots = roots[:len(roots)-1]
		}
		return roots[0]
	}

	sinkRoots := make([]int32, sinks)
	for i := 0; i < sinks; i++ {
		budget := int(float64(p.Gates) * weights[i] / wsum)
		hCone.ObserveInt(budget)
		sinkRoots[i] = buildCone(budget)
	}

	for i := 0; i < p.Outputs; i++ {
		b.OutputNet(sinkRoots[i])
	}
	for i := 0; i < p.DFFs; i++ {
		b.GateNet(int32(p.Inputs+i), netlist.DFF, sinkRoots[p.Outputs+i])
	}
	b.AddNets(len(prob)-nSrc, counted("g"))

	c, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("bench89: generating %s: %w", p.Name, err)
	}
	col.Counter("bench89.circuits.generated").Inc()
	col.Counter("bench89.gates.generated").Add(int64(len(prob) - nSrc))
	if col.Tracing() {
		col.Emit("bench89.generated",
			obs.F("name", p.Name),
			obs.F("seed", p.Seed),
			obs.F("inputs", p.Inputs),
			obs.F("outputs", p.Outputs),
			obs.F("dffs", p.DFFs),
			obs.F("gates", len(prob)-nSrc),
			obs.F("cones", sinks))
	}
	span.End()
	return c, nil
}

// counted names net i prefix<i>, for Builder.AddNets.
func counted(prefix string) func(dst []byte, i int) []byte {
	return func(dst []byte, i int) []byte { return strconv.AppendInt(append(dst, prefix...), int64(i), 10) }
}

// MustGenerate is Generate for known-good profiles; it panics on error.
// It is intended for tests and examples with hard-coded profiles —
// anything handling external or computed profiles must call Generate and
// propagate the error instead.
func MustGenerate(p Profile) *netlist.Circuit {
	c, err := Generate(p)
	if err != nil {
		panic(err)
	}
	return c
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
