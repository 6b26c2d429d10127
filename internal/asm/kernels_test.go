package asm_test

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/workloads"
)

// TestKernelsMatchTwoPass assembles every kernel at scales 1 to 4 with
// Assemble and with the two-pass reference, and requires the same
// instructions, data runs, symbols and digest.
func TestKernelsMatchTwoPass(t *testing.T) {
	for scale := 1; scale <= 4; scale++ {
		for _, w := range workloads.AtScale(scale) {
			if d := asm.DiffTwoPass(w.Source); d != "" {
				t.Errorf("%s at scale %d: %s", w.Name, scale, d)
			}
		}
	}
}
