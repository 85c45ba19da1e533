// Wrapper and TAM design for the paper's SOC2: the dimension the paper's
// TDV analysis deliberately excludes ("we exclude the impact of the scan
// chain organization or the test access mechanism", Section 3).
//
// The example runs the wrapper/TAM co-optimizer on a 16-line TAM: every
// core gets IEEE 1500-style wrapper chains at the width the packer picks,
// the cores are packed onto the TAM lines, and the shifted volume splits
// into the useful bits the paper counts and the idle bits its accounting
// holds at zero — wrapper idle (imbalanced wrapper chains) and TAM idle
// (lines left unused while other cores finish).
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/coopt"
)

func main() {
	sch, err := coopt.Optimize(repro.SOC2(), coopt.Options{TAMWidth: 16})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("Core placements on a %d-line TAM:\n", sch.TAMWidth)
	for _, p := range sch.Placements {
		fmt.Printf("  %-16s width %2d  cycles %8d..%-8d  wrapper idle %8d bits\n",
			p.Core, p.Width, p.Start, p.Finish, p.IdleBits)
	}
	fmt.Printf("\nTest time %d cycles (lower bound %d, ratio %.2f)\n\n",
		sch.TotalTime, sch.LowerBound, sch.LBRatio)

	fmt.Printf("Useful bits        %10d\n", sch.UsefulBits)
	fmt.Printf("Wrapper idle bits  %10d\n", sch.WrapperIdleBits)
	fmt.Printf("TAM idle bits      %10d\n", sch.TAMIdleBits)
	fmt.Printf("Shifted total      %10d  (%.1f%% useful)\n", sch.TDVBits, 100*sch.Utilization)
	fmt.Println("\nThe idle terms are exactly what the paper's comparative analysis")
	fmt.Println("holds at zero by assuming balanced chains and a fully used TAM.")
}
