package regreuse

// Allocation-regression test for the simulation hot loop: once the core has
// reached steady state (checkpoint pools populated, writeback buckets at
// their high-water capacity), stepping the pipeline must not allocate at all. This
// is what keeps the cycle loop out of the Go allocator and garbage collector
// and is the contract the queues.go/pooling design provides.

import (
	"testing"

	"repro/internal/ckpt"
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

// TestBootedCoreAllocs pins what one fast-forward job's core costs the
// allocator: building a core booted from a prepared checkpoint, replaying
// its warmup and running 5,000 instructions. The core's structures are
// allocated up front, each in one block (the writeback calendar's buckets
// are carved from one array), so the count does not grow with the cycles
// run; most of it is the clone of the boot memory, one allocation a page.
// Growing the calendar a bucket at a time cost about 3,000 allocations
// here; carved, the three schemes take 125 to 220.
func TestBootedCoreAllocs(t *testing.T) {
	const ceiling = 500
	w, ok := workloads.ByName("dgemm", 4)
	if !ok {
		t.Fatal("dgemm workload missing")
	}
	p := w.Program()
	bs, _, err := ckpt.Prepare(nil, p, ckpt.ProgramDigest(p), 100000, 5000)
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []Scheme{Baseline, Reuse, EarlyRelease} {
		t.Run(pipeline.Scheme(scheme).String(), func(t *testing.T) {
			cfg := pipeline.DefaultConfig(pipeline.Scheme(scheme))
			cfg.Boot, cfg.BootWarmup, cfg.MaxInsts = bs.Boot, bs.Warmup, 5000
			var committed uint64
			avg := testing.AllocsPerRun(5, func() {
				core := pipeline.New(cfg, p)
				if err := core.Run(); err != nil {
					t.Fatal(err)
				}
				committed = core.Stats().Committed
			})
			if committed != 5000 {
				t.Fatalf("core committed %d instructions, want 5000", committed)
			}
			t.Logf("%.0f allocations per booted core", avg)
			if avg > ceiling {
				t.Errorf("a booted core allocates %.0f times, want at most %d", avg, ceiling)
			}
		})
	}
}
