package main

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/bench89"
	"repro/internal/faults"
	"repro/internal/faultsim"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/soc"
)

// gradePatterns is the number of seeded random patterns graded per
// netlist: one pass over the eight netlists takes ~0.5 s on two CPUs.
const gradePatterns = 24576

// serialCheckFaults bounds how many faults per netlist the serial
// reference re-simulates: the pattern-at-a-time engine needs ~11 s for all
// of SOC2's flattened faults over 64 patterns.
const serialCheckFaults = 128

// The six stand-ins, and the cores of the flattened SOC1 and SOC2 as
// repro.LiveSOC1/2 build them at GateScale 1.
var (
	gradeStandins = []string{"s713", "s953", "s1423", "s5378", "s13207", "s15850"}
	soc1Cores     = []string{"s713", "s953", "s1423", "s1423", "s1423"}
	soc2Cores     = []string{"s953", "s5378", "s13207", "s15850"}
)

// gradeNet is one graded netlist with its collapsed fault list.
type gradeNet struct {
	c     *netlist.Circuit
	flist []faults.Fault
}

// gradeGolden is the checked part of one netlist's grading.
type gradeGolden struct {
	Netlist  string
	Faults   int
	Detected int
}

// gradeSetups is how many times fault_grade sets up (~1 s each).
const gradeSetups = 3

// faultGrade grades seeded random patterns with the compiled PPSFP kernel
// and no PODEM. Each set-up generates the six stand-ins, flattens SOC1 and
// SOC2 on the seed, collapses the fault lists and draws the patterns. Its
// verify pass grades them once and checks the first 64 patterns' detection
// table against faultsim.SerialSimulate on a seeded fault sample (and, for
// --seed 1, the golden counts). Every repeated set-up and every timed pass
// must reproduce the first verify pass exactly.
func faultGrade(e *env) (*outcome, error) {
	o := &outcome{}
	var (
		nets     []gradeNet
		patterns [][]logic.Cube
		want     []*faultsim.Result
	)
	err := setUp(e, o, gradeSetups, func(sp *tspan, layer func(string, time.Duration)) error {
		var err error
		if nets, err = gradeSetup(e, sp, layer); err != nil {
			return err
		}
		r := rand.New(rand.NewSource(e.seed))
		patterns = make([][]logic.Cube, len(nets))
		for i, n := range nets {
			patterns[i] = randomPatterns(r, len(n.c.PseudoInputs()), gradePatterns)
		}

		vs := e.tr.start("verify", sp)
		defer vs.end()
		got, _, _ := gradePass(e, nets, patterns, vs, nil)
		var golden []gradeGolden
		for i, n := range nets {
			if err := serialCheck(r, n, patterns[i][:64], got[i]); err != nil {
				return err
			}
			if want != nil && !slices.Equal(got[i].DetectedBy, want[i].DetectedBy) {
				return fmt.Errorf("grade %s: repeated verify pass differs", n.c.Name)
			}
			golden = append(golden, gradeGolden{n.c.Name, len(n.flist), got[i].NumDetected})
		}
		if e.seed == 1 {
			if err := checkGolden(e, "grade_seed1.json", goldenJSON(golden)); err != nil {
				return err
			}
		}
		want = got
		return nil
	})
	if err != nil {
		return nil, err
	}

	var compile, simulate time.Duration
	start := e.tr.now()
	for another(e, o, 1, start) {
		op := e.tr.start("op", nil)
		got, c, s := gradePass(e, nets, patterns, op, e.col)
		o.ops = append(o.ops, op.end())
		compile += c
		simulate += s
		o.attempted += len(nets)
		for i := range nets {
			if !slices.Equal(got[i].DetectedBy, want[i].DetectedBy) {
				return nil, fmt.Errorf("grade %s: timed pass differs from the verify pass", nets[i].c.Name)
			}
		}
	}
	o.layerAdd("faultsim.compile_s", compile.Seconds()/float64(len(o.ops)))
	o.layerAdd("faultsim.simulate_s", simulate.Seconds()/float64(len(o.ops)))
	return o, nil
}

// gradeSetup builds the eight netlists and their fault lists, reporting
// each layer's share of the set-up through layer.
func gradeSetup(e *env, parent *tspan, layer func(string, time.Duration)) ([]gradeNet, error) {
	gen := func(name string, offset int64) (*netlist.Circuit, error) {
		prof, ok := bench89.ProfileByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown stand-in %q", name)
		}
		prof.Seed += offset
		return bench89.Generate(prof)
	}
	instances := func(names []string) ([]*netlist.Circuit, error) {
		var cs []*netlist.Circuit
		for i, n := range names {
			// The same per-instance offset repro.LiveSOC1/2 uses.
			c, err := gen(n, int64(i)*1013)
			if err != nil {
				return nil, err
			}
			cs = append(cs, c)
		}
		return cs, nil
	}

	sp := e.tr.start("bench89.generate", parent)
	var circuits []*netlist.Circuit
	for _, n := range gradeStandins {
		c, err := gen(n, 0)
		if err != nil {
			return nil, err
		}
		circuits = append(circuits, c)
	}
	cores1, err := instances(soc1Cores)
	if err != nil {
		return nil, err
	}
	cores2, err := instances(soc2Cores)
	if err != nil {
		return nil, err
	}
	layer("bench89.generate_s", sp.end())

	sp = e.tr.start("soc.flatten", parent)
	flatOpts := soc.FlattenOptions{Seed: e.seed, InterconnectFraction: 0.45}
	flat1, err := soc.Flatten("SOC1-flat", cores1, flatOpts)
	if err != nil {
		return nil, err
	}
	flat2, err := soc.Flatten("SOC2-flat", cores2, flatOpts)
	if err != nil {
		return nil, err
	}
	layer("soc.flatten_s", sp.end())

	sp = e.tr.start("faults.collapse", parent)
	var nets []gradeNet
	for _, c := range append(circuits, flat1, flat2) {
		nets = append(nets, gradeNet{c: c, flist: faults.CollapsedUniverse(c)})
	}
	sp.end()
	return nets, nil
}

// gradePass grades every netlist once, instrumented by col:
// faultsim.NewEngine (which compiles the netlist) and Apply with nproc
// workers, the sequence faultsim.SimulateWorkers runs. It also returns the
// time spent compiling and simulating.
func gradePass(e *env, nets []gradeNet, patterns [][]logic.Cube, parent *tspan, col *obs.Collector) (out []*faultsim.Result, compile, simulate time.Duration) {
	out = make([]*faultsim.Result, len(nets))
	for i, n := range nets {
		sp := e.tr.start("faultsim.compile", parent)
		eng := faultsim.NewEngine(n.c, n.flist)
		compile += sp.end()
		eng.Instrument(col)
		eng.SetWorkers(e.workers)
		sp = e.tr.start("faultsim.simulate", parent)
		eng.Apply(patterns[i])
		simulate += sp.end()
		out[i] = eng.Result()
	}
	return out, compile, simulate
}

// serialCheck re-simulates a seeded sample of n's faults over the first
// 64 patterns with the serial reference engine. Each sampled fault must be
// first detected by the same pattern as in the full PPSFP pass, or by
// none of the 64 when the full pass detects it later or never.
func serialCheck(r *rand.Rand, n gradeNet, first64 []logic.Cube, full *faultsim.Result) error {
	idx := r.Perm(len(n.flist))
	if len(idx) > serialCheckFaults {
		idx = idx[:serialCheckFaults]
	}
	sample := make([]faults.Fault, len(idx))
	for j, i := range idx {
		sample[j] = n.flist[i]
	}
	ref := faultsim.SerialSimulate(n.c, first64, sample)
	for j, i := range idx {
		want := full.DetectedBy[i]
		if want >= len(first64) {
			want = faultsim.Undetected
		}
		if ref.DetectedBy[j] != want {
			return fmt.Errorf("grade %s: fault %v first detected by pattern %d, serial reference says %d",
				n.c.Name, n.flist[i], want, ref.DetectedBy[j])
		}
	}
	return nil
}

// randomPatterns draws n fully specified patterns of the given width.
func randomPatterns(r *rand.Rand, width, n int) []logic.Cube {
	out := make([]logic.Cube, n)
	for i := range out {
		p := make(logic.Cube, width)
		var bits uint64
		for j := range p {
			if j%64 == 0 {
				bits = r.Uint64()
			}
			p[j] = logic.FromBool(bits&1 == 1)
			bits >>= 1
		}
		out[i] = p
	}
	return out
}
