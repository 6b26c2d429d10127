package pipeline

import (
	"testing"

	"repro/internal/regfile"
	"repro/internal/rename"
	"repro/internal/workloads"
)

// TestEarlyReleaseCorrectness: the comparator scheme must be architecturally
// transparent across the workload suite, including under interrupts. Debug
// invariants check the incremental speculation boundary against a ROB walk
// every cycle, across squashes and the interrupts' full flushes.
func TestEarlyReleaseCorrectness(t *testing.T) {
	if testing.Short() {
		t.Skip("differential in -short mode")
	}
	for _, name := range []string{"poly_horner", "qsortint", "hashjoin", "gmm_score", "fft", "adpcm_enc"} {
		w, ok := workloads.ByName(name, 1)
		if !ok {
			t.Fatalf("unknown workload %s", name)
		}
		cfg := DefaultConfig(EarlyRelease)
		cfg.CheckOracle = true
		cfg.DebugInvariants = true
		cfg.MaxCycles = 100_000_000
		cfg.InterruptEvery = 7000
		c := New(cfg, w.Program())
		if err := c.Run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		x, _ := c.ArchRegs()
		if x[workloads.CheckReg] != w.Want {
			t.Errorf("%s: checksum %#x, want %#x", name, x[workloads.CheckReg], w.Want)
		}
	}
}

// TestEarlyReleaseActuallyReleasesEarly: the early-release counter must be
// substantial on a chain workload, and the scheme must beat the baseline
// under register pressure (while typically trailing the paper's scheme,
// which frees at rename rather than execution).
func TestEarlyReleaseSchemeOrdering(t *testing.T) {
	w, _ := workloads.ByName("poly_horner", 2)
	run := func(s Scheme) (*Core, uint64) {
		cfg := DefaultConfig(s)
		cfg.MaxCycles = 1 << 32
		if s == Baseline {
			cfg.FPRegs = regfile.Uniform(56, 0)
		} else {
			cfg.FPRegs = regfile.BankSizes{31, 11, 7, 4} // equal-area @56
		}
		c := New(cfg, w.Program())
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		x, _ := c.ArchRegs()
		if x[workloads.CheckReg] != w.Want {
			t.Fatalf("%v: wrong checksum", s)
		}
		return c, c.Stats().Cycles
	}
	_, base := run(Baseline)
	early, earlyCyc := run(EarlyRelease)
	_, reuse := run(Reuse)

	er := early.renF.(*rename.EarlyRenamer)
	if er.EarlyReleases == 0 {
		t.Fatal("no early releases on a chain-heavy FP workload")
	}
	t.Logf("cycles: baseline=%d early=%d reuse=%d (early releases: %d)",
		base, earlyCyc, reuse, er.EarlyReleases)
	// At equal area the early-release scheme trades registers for shadow
	// cells like the reuse scheme does, but frees them only at the last
	// use's execution + producer commit — so it should land near the
	// baseline, while the paper's rename-time reuse clearly wins (§VII:
	// "our technique is the only one that can reuse a physical register
	// as early as the last use of this register is renamed").
	if earlyCyc > base+base/20 {
		t.Errorf("early release (%d) much slower than baseline (%d); scheme is broken, not just conservative", earlyCyc, base)
	}
	if reuse >= earlyCyc {
		t.Errorf("paper's reuse scheme (%d cycles) did not beat early release (%d cycles)", reuse, earlyCyc)
	}
}

// TestEarlyReleaseFreeListConservation: after running to completion, every
// register is either free or architecturally mapped.
func TestEarlyReleaseFreeListConservation(t *testing.T) {
	w, _ := workloads.ByName("dijkstra", 1)
	cfg := DefaultConfig(EarlyRelease)
	cfg.IntRegs = regfile.BankSizes{34, 6, 4, 4}
	cfg.CheckOracle = true
	cfg.MaxCycles = 1 << 32
	c := New(cfg, w.Program())
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	// Drain: everything committed at halt. Count distinct architecturally
	// mapped registers.
	seen := map[rename.PhysReg]bool{}
	for l := uint8(0); l < 32; l++ {
		seen[c.renI.RetireTag(l).Reg] = true
	}
	total := cfg.IntRegs.Total()
	if got, want := c.renI.FreeRegs(), total-len(seen); got != want {
		t.Errorf("int free = %d, want %d (%d total, %d live)", got, want, total, len(seen))
	}
}
