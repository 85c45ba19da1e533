// benchjson times the performance-critical layers against their serial
// baselines and writes the measurements as machine-readable JSON, so the
// BENCH_*.json trajectories stay diffable across PRs.
//
// Two modes:
//
//   - -mode kernel (default, BENCH_kernel.json): the PPSFP fault-simulation
//     kernel. Each case times the 64-wide bit-parallel engine against the
//     pattern-at-a-time serial reference engine on one thread; speedup is
//     relative to the serial engine within the case.
//   - -mode schedule (BENCH_schedule.json): the wrapper/TAM rectangle
//     packer. Each case times coopt.Pack on one ITC'02 SOC at TAM width 32
//     and records the achieved-vs-lower-bound time ratio (lb_ratio).
//
// Every case is first cross-checked: the timed configurations must produce
// first-detection tables identical to the reference (kernel) or
// byte-identical schedules within 2x of the lower bound (schedule), or the
// program exits 1 without writing numbers — a speedup measured on
// divergent output is meaningless (verify-then-measure).
//
// Kernel speedups need no extra cores: word packing and cone-limited
// propagation are single-thread gains. The host block records
// cpus/gomaxprocs so readers can tell where a file was measured.
//
// Usage:
//
//	benchjson [-mode kernel|schedule] [-out FILE] [-quick]
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"testing"

	"flag"

	"repro/internal/bench89"
	"repro/internal/coopt"
	"repro/internal/faults"
	"repro/internal/faultsim"
	"repro/internal/itc02"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/runctl"
)

type result struct {
	// Engine identifies the implementation in -mode kernel rows
	// ("serial" or "ppsfp") and is "pack" in -mode schedule rows.
	Engine  string  `json:"engine,omitempty"`
	NsPerOp int64   `json:"ns_per_op"`
	Speedup float64 `json:"speedup"`
	// LBRatio is the -mode schedule quality metric: achieved test time
	// over the area/bottleneck lower bound (1.0 = provably optimal).
	LBRatio float64 `json:"lb_ratio,omitempty"`
}

type benchCase struct {
	Name     string `json:"name"`
	Patterns int    `json:"patterns,omitempty"`
	Faults   int    `json:"faults,omitempty"`
	// TAM/Cores/TotalTime/LowerBound describe -mode schedule cases: the
	// TAM width, the packed core count, and the achieved-vs-bound times.
	TAM        int      `json:"tam,omitempty"`
	Cores      int      `json:"cores,omitempty"`
	TotalTime  int64    `json:"total_time,omitempty"`
	LowerBound int64    `json:"lower_bound,omitempty"`
	Results    []result `json:"results"`
}

type report struct {
	Mode string `json:"mode"`
	Host struct {
		CPUs       int    `json:"cpus"`
		GoMaxProcs int    `json:"gomaxprocs"`
		GoVersion  string `json:"go_version"`
	} `json:"host"`
	Cases []benchCase `json:"cases"`
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchjson: "+format+"\n", args...)
	os.Exit(1)
}

func standin(name string) *netlist.Circuit {
	prof, ok := bench89.ProfileByName(name)
	if !ok {
		fail("unknown stand-in %q", name)
	}
	c, err := bench89.Generate(prof)
	if err != nil {
		fail("generate %s: %v", name, err)
	}
	return c
}

func seededPatterns(c *netlist.Circuit, n int) []logic.Cube {
	r := rand.New(rand.NewSource(3))
	patterns := make([]logic.Cube, n)
	for i := range patterns {
		p := make(logic.Cube, len(c.PseudoInputs()))
		for j := range p {
			p[j] = logic.FromBool(r.Intn(2) == 1)
		}
		patterns[i] = p
	}
	return patterns
}

// kernelCase is the serial-vs-PPSFP trajectory: the bit-parallel kernel is
// first proven to reproduce the serial engine's first-detection table on
// the exact measured workload, then both are timed single-threaded.
func kernelCase(name string, nPatterns int) benchCase {
	c := standin(name)
	flist := faults.CollapsedUniverse(c)
	patterns := seededPatterns(c, nPatterns)

	want := faultsim.SerialSimulate(c, patterns, flist)
	got := faultsim.Simulate(c, patterns, flist)
	if !reflect.DeepEqual(got.DetectedBy, want.DetectedBy) {
		fail("kernel %s: PPSFP detection table diverges from the serial engine", name)
	}

	bc := benchCase{Name: "kernel/" + name, Patterns: nPatterns, Faults: len(flist)}
	serial := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			faultsim.SerialSimulate(c, patterns, flist)
		}
	})
	ppsfp := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			faultsim.Simulate(c, patterns, flist)
		}
	})
	bc.Results = append(bc.Results, result{
		Engine:  "serial",
		NsPerOp: serial.NsPerOp(),
		Speedup: 1,
	})
	bc.Results = append(bc.Results, result{
		Engine:  "ppsfp",
		NsPerOp: ppsfp.NsPerOp(),
		Speedup: round2(float64(serial.NsPerOp()) / float64(ppsfp.NsPerOp())),
	})
	return bc
}

// scheduleCase times the wrapper/TAM rectangle packer on one ITC'02 SOC,
// after verifying the schedule is deterministic (two independent computes
// encode to identical bytes) and within 2x of the area/bottleneck lower
// bound — a runtime measured on a broken packing is meaningless.
func scheduleCase(name string, tamW int) benchCase {
	soc, err := itc02.SOCByName(name)
	if err != nil {
		fail("schedule %s: %v", name, err)
	}
	opts := coopt.Options{TAMWidth: tamW}
	sch, err := coopt.Optimize(soc, opts)
	if err != nil {
		fail("schedule %s: %v", name, err)
	}
	again, err := coopt.Optimize(soc, opts)
	if err != nil {
		fail("schedule %s: %v", name, err)
	}
	a, _ := sch.Encode()
	b, _ := again.Encode()
	if !bytes.Equal(a, b) {
		fail("schedule %s: two computes produced different bytes", name)
	}
	if sch.TotalTime > 2*sch.LowerBound {
		fail("schedule %s: total %d exceeds 2x lower bound %d", name, sch.TotalTime, sch.LowerBound)
	}

	// Time the packer proper: the staircases are an input (built once per
	// SOC in every real caller), the rectangle packing is the hot loop.
	cores, err := coopt.BuildCores(soc, tamW)
	if err != nil {
		fail("schedule %s: %v", name, err)
	}
	br := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := coopt.Pack(cores, tamW, 0, nil); err != nil {
				fail("schedule %s: %v", name, err)
			}
		}
	})
	bc := benchCase{
		Name:       "schedule/" + name,
		TAM:        tamW,
		Cores:      len(cores),
		TotalTime:  sch.TotalTime,
		LowerBound: sch.LowerBound,
	}
	bc.Results = append(bc.Results, result{
		Engine:  "pack",
		NsPerOp: br.NsPerOp(),
		Speedup: 1,
		LBRatio: sch.LBRatio,
	})
	return bc
}

func round2(v float64) float64 { return float64(int64(v*100+0.5)) / 100 }

func main() {
	var out string
	flag.StringVar(&out, "out", "", "output `file` for the JSON report (default BENCH_<mode>.json)")
	flag.StringVar(&out, "o", "", "alias for -out")
	mode := flag.String("mode", "kernel", "benchmark `mode`: kernel (serial vs PPSFP) or schedule (wrapper/TAM packer)")
	quick := flag.Bool("quick", false, "smaller circuits and pattern counts (smoke mode)")
	flag.Parse()

	var rep report
	rep.Mode = *mode
	rep.Host.CPUs = runtime.NumCPU()
	rep.Host.GoMaxProcs = runtime.GOMAXPROCS(0)
	rep.Host.GoVersion = runtime.Version()

	switch *mode {
	case "kernel":
		if *quick {
			rep.Cases = append(rep.Cases, kernelCase("s713", 128))
		} else {
			for _, name := range []string{"s713", "s1423", "s5378", "s13207"} {
				rep.Cases = append(rep.Cases, kernelCase(name, 256))
			}
		}
	case "schedule":
		if *quick {
			rep.Cases = append(rep.Cases, scheduleCase("d695", 32))
		} else {
			for _, row := range itc02.PublishedTable4() {
				rep.Cases = append(rep.Cases, scheduleCase(row.Name, 32))
			}
		}
	default:
		fail("unknown -mode %q (want kernel or schedule)", *mode)
	}
	if out == "" {
		out = "BENCH_" + *mode + ".json"
	}

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fail("encode: %v", err)
	}
	if err := runctl.WriteFileAtomic(out, buf.Bytes()); err != nil {
		fail("%v", err)
	}
	fmt.Printf("wrote %s (mode=%s cpus=%d gomaxprocs=%d, %d cases)\n",
		out, *mode, rep.Host.CPUs, rep.Host.GoMaxProcs, len(rep.Cases))
}
