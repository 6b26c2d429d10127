package regreuse

// Allocation-regression test for the simulation hot loop: once the core has
// reached steady state (checkpoint pools populated, writeback buckets at
// their high-water capacity), stepping the pipeline must not allocate at all. This
// is what keeps the cycle loop out of the Go allocator and garbage collector
// and is the contract the queues.go/pooling design provides.

import (
	"testing"

	"repro/internal/pipeline"
	"repro/internal/workloads"
)

func TestCoreStepZeroAllocs(t *testing.T) {
	w, ok := workloads.ByName("dgemm", 4)
	if !ok {
		t.Fatal("dgemm workload missing")
	}
	p := w.Program()
	// One cycle loop serves every scheme; the zero-alloc guarantee is
	// asserted under each, since each takes different renamer paths.
	for _, scheme := range []Scheme{Baseline, Reuse, EarlyRelease} {
		t.Run(pipeline.Scheme(scheme).String(), func(t *testing.T) {
			core := pipeline.New(pipeline.DefaultConfig(pipeline.Scheme(scheme)), p)
			// Warm up: grow the writeback buckets and checkpoint pools to
			// their steady capacity, fault in the touched pages.
			core.StepN(50000)
			if core.Halted() {
				t.Fatal("workload halted during warmup; pick a longer one")
			}
			avg := testing.AllocsPerRun(10, func() {
				core.StepN(2000)
			})
			if core.Halted() {
				t.Fatal("workload halted during measurement; pick a longer one")
			}
			if avg != 0 {
				t.Errorf("steady-state stepping allocates: %.2f allocs per 2000 cycles, want 0", avg)
			}
		})
	}
}
