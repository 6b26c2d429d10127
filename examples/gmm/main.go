// GMM: a cognitive-computing case study (§V-B of the paper evaluates GMM
// and DNN kernels from speech pipelines). This example shrinks the
// floating-point register file step by step and shows how the reuse scheme
// holds on to performance longer than the conventional baseline.
//
//	go run ./examples/gmm
package main

import (
	"fmt"
	"log"

	regreuse "repro"
	"repro/internal/sim"
)

func main() {
	fmt.Println("GMM acoustic scoring under shrinking FP register files")
	fmt.Printf("%8s  %26s  %10s  %10s  %8s\n",
		"baseline", "equal-area hybrid", "base IPC", "reuse IPC", "speedup")

	for _, size := range []int{48, 56, 64, 80, 96, 112} {
		hybrid := sim.RegFile(regreuse.Reuse, size)

		base, err := regreuse.RunWorkload("gmm_score", 2, regreuse.Config{
			Scheme: regreuse.Baseline,
			FPRegs: sim.RegFile(regreuse.Baseline, size),
		})
		if err != nil {
			log.Fatal(err)
		}
		reuse, err := regreuse.RunWorkload("gmm_score", 2, regreuse.Config{
			Scheme: regreuse.Reuse,
			FPRegs: hybrid,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%8d  %20s (%3d)  %10.3f  %10.3f  %7.1f%%\n",
			size,
			fmt.Sprintf("%d/%d/%d/%d", hybrid[0], hybrid[1], hybrid[2], hybrid[3]),
			hybrid.Total(),
			base.IPC, reuse.IPC,
			100*(float64(base.Cycles)/float64(reuse.Cycles)-1))
	}

	fmt.Println("\nThe hybrid file has fewer registers (same silicon area), yet the")
	fmt.Println("reuse scheme matches or beats the baseline until the file is so")
	fmt.Println("large that renaming stops being the bottleneck.")
}
