package pipeline

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/regfile"
	"repro/internal/workloads"
)

// runScheme runs src under the given scheme with the lockstep oracle and
// the per-dispatch invariant checks enabled and returns the core.
func runScheme(t *testing.T, src string, scheme Scheme, mut func(*Config)) *Core {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	cfg := DefaultConfig(scheme)
	cfg.CheckOracle = true
	cfg.DebugInvariants = true
	cfg.MaxCycles = 10_000_000
	if mut != nil {
		mut(&cfg)
	}
	c := New(cfg, p)
	if err := c.Run(); err != nil {
		t.Fatalf("%v scheme: %v", scheme, err)
	}
	if !c.Halted() {
		t.Fatalf("%v scheme: did not halt", scheme)
	}
	return c
}

const sumLoop = `
	movi x1, #100
	movi x2, #0
loop:
	add  x2, x2, x1
	subi x1, x1, #1
	bne  x1, xzr, loop
	halt
`

func TestSumLoopBothSchemes(t *testing.T) {
	for _, s := range []Scheme{Baseline, Reuse} {
		c := runScheme(t, sumLoop, s, nil)
		x, _ := c.ArchRegs()
		if x[2] != 5050 {
			t.Errorf("%v: x2 = %d, want 5050", s, x[2])
		}
		if c.Stats().Committed != 2+3*100+1 {
			t.Errorf("%v: committed = %d", s, c.Stats().Committed)
		}
	}
}

func TestReuseChainProducesSharing(t *testing.T) {
	// The paper's Figure 4 chain, in a loop so the predictor trains.
	src := `
	movi x20, #200
	movi x2, #3
	movi x3, #5
	movi x4, #7
outer:
	add  x1, x2, x3
	add  x1, x1, x4
	mul  x1, x1, x1
	add  x5, x1, x2
	subi x20, x20, #1
	bne  x20, xzr, outer
	halt
	`
	c := runScheme(t, src, Reuse, nil)
	st := c.RenStats(0) // integer
	if st.TotalReuses() == 0 {
		t.Error("no physical-register reuses on a chain-heavy loop")
	}
	if st.ReuseSameLog == 0 {
		t.Error("no guaranteed (redefining) reuses detected")
	}
}

func TestFPWorkloadBothSchemes(t *testing.T) {
	src := `
	movi x1, #50
	fmovi f1, #1.5
	fmovi f2, #0.5
	fmovi f0, #0.0
floop:
	fmul f3, f1, f2
	fadd f3, f3, f2
	fadd f0, f0, f3
	subi x1, x1, #1
	bne  x1, xzr, floop
	fcvtzs x10, f0
	halt
	`
	want := uint64(0)
	{
		// Reference via emulator.
		p := asm.MustAssemble(src)
		s := emu.New(p)
		if _, err := s.RunToHalt(10000, nil); err != nil {
			t.Fatal(err)
		}
		want = s.X[10]
	}
	for _, s := range []Scheme{Baseline, Reuse} {
		c := runScheme(t, src, s, nil)
		x, _ := c.ArchRegs()
		if x[10] != want {
			t.Errorf("%v: x10 = %d, want %d", s, x[10], want)
		}
	}
}

func TestStoreLoadForwarding(t *testing.T) {
	src := `
	la   x1, buf
	movi x2, #42
	str  x2, [x1, #0]
	ldr  x3, [x1, #0]     ; must forward from the store
	addi x4, x3, #1
	halt
.data
buf: .space 8
	`
	for _, s := range []Scheme{Baseline, Reuse} {
		c := runScheme(t, src, s, nil)
		x, _ := c.ArchRegs()
		if x[3] != 42 || x[4] != 43 {
			t.Errorf("%v: x3=%d x4=%d", s, x[3], x[4])
		}
	}
}

func TestBranchMispredictionRecovery(t *testing.T) {
	// Data-dependent branches from an LCG: forces mispredictions.
	src := `
	movi x1, #12345
	movi x2, #1103515245
	movi x3, #12345
	movi x4, #500
	movi x5, #0
	movi x6, #0
loop:
	mul  x1, x1, x2
	add  x1, x1, x3
	lsri x7, x1, #16
	andi x7, x7, #1
	beq  x7, xzr, even
	addi x5, x5, #1
	b    next
even:
	addi x6, x6, #1
next:
	subi x4, x4, #1
	bne  x4, xzr, loop
	add  x10, x5, x6
	halt
	`
	for _, s := range []Scheme{Baseline, Reuse} {
		c := runScheme(t, src, s, nil)
		x, _ := c.ArchRegs()
		if x[10] != 500 {
			t.Errorf("%v: x10 = %d, want 500", s, x[10])
		}
		if c.Stats().Mispredicts == 0 {
			t.Errorf("%v: expected mispredictions on random branches", s)
		}
	}
}

func TestSmallRegisterFileStallsButStaysCorrect(t *testing.T) {
	// 40 integer registers (32 architectural + 8) under heavy pressure.
	for _, s := range []Scheme{Baseline, Reuse} {
		mut := func(cfg *Config) {
			if s == Baseline {
				cfg.IntRegs = regfile.Uniform(40, 0)
			} else {
				cfg.IntRegs = regfile.BankSizes{34, 2, 2, 2}
			}
		}
		c := runScheme(t, sumLoop, s, mut)
		x, _ := c.ArchRegs()
		if x[2] != 5050 {
			t.Errorf("%v small RF: x2 = %d", s, x[2])
		}
	}
}

func TestReuseBeatsBaselineUnderPressure(t *testing.T) {
	// Many independent short chains of single-use values: performance is
	// bound by how many instructions fit in flight, which a tiny register
	// file throttles. The reuse scheme should stall less and run faster.
	body := "	movi x20, #300\n	fmovi f1, #1.001\n	fmovi f2, #0.5\n"
	for i := 10; i < 18; i++ {
		body += fmt.Sprintf("	fmovi f%d, #1.0\n", i)
	}
	body += "loop:\n"
	for i := 0; i < 8; i++ {
		acc := 10 + i
		body += fmt.Sprintf("	fmul f3, f%d, f1\n", acc)
		body += "	fadd f3, f3, f2\n"
		body += "	fmul f3, f3, f1\n"
		body += fmt.Sprintf("	fadd f%d, f%d, f3\n", acc, acc)
	}
	body += `
	subi x20, x20, #1
	bne  x20, xzr, loop
	fmovi f0, #0.0
`
	for i := 10; i < 18; i++ {
		body += fmt.Sprintf("	fadd f0, f0, f%d\n", i)
	}
	body += "	fcvtzs x10, f0\n	halt\n"
	src := body
	base := runScheme(t, src, Baseline, func(cfg *Config) {
		cfg.FPRegs = regfile.Uniform(40, 0)
	})
	reuse := runScheme(t, src, Reuse, func(cfg *Config) {
		cfg.FPRegs = regfile.BankSizes{28, 4, 4, 4}
	})
	bx, _ := base.ArchRegs()
	rx, _ := reuse.ArchRegs()
	if bx[10] != rx[10] {
		t.Fatalf("schemes disagree: %d vs %d", bx[10], rx[10])
	}
	bIPC, rIPC := base.Stats().IPC(), reuse.Stats().IPC()
	t.Logf("baseline IPC=%.3f reuse IPC=%.3f (fp stall cycles: %d vs %d)",
		bIPC, rIPC, base.Stats().StallNoRegFP, reuse.Stats().StallNoRegFP)
	if rIPC <= bIPC {
		t.Errorf("reuse scheme (%.3f IPC) not faster than baseline (%.3f IPC) under register pressure", rIPC, bIPC)
	}
}

func TestPageFaultRecovery(t *testing.T) {
	src := `
	la   x1, buf
	movi x2, #7
	str  x2, [x1, #0]
	ldr  x3, [x1, #0]
	movi x4, #4096
	add  x5, x1, x4
	str  x2, [x5, #0]     ; second page: another fault
	ldr  x6, [x5, #0]
	add  x10, x3, x6
	halt
.data
buf: .space 8192
	`
	for _, s := range []Scheme{Baseline, Reuse} {
		c := runScheme(t, src, s, func(cfg *Config) { cfg.DemandPaging = true })
		x, _ := c.ArchRegs()
		if x[10] != 14 {
			t.Errorf("%v: x10 = %d, want 14", s, x[10])
		}
		if c.Stats().PageFaults == 0 {
			t.Errorf("%v: expected page faults", s)
		}
	}
}

func TestTimerInterrupts(t *testing.T) {
	for _, s := range []Scheme{Baseline, Reuse} {
		c := runScheme(t, sumLoop, s, func(cfg *Config) {
			cfg.InterruptEvery = 200
		})
		x, _ := c.ArchRegs()
		if x[2] != 5050 {
			t.Errorf("%v with interrupts: x2 = %d", s, x[2])
		}
		if c.Stats().Interrupts == 0 {
			t.Errorf("%v: no interrupts taken", s)
		}
	}
}

func TestCallsAndReturns(t *testing.T) {
	src := `
	movi x1, #0
	movi x20, #50
loop:
	bl   inc
	bl   inc
	subi x20, x20, #1
	bne  x20, xzr, loop
	mov  x10, x1
	halt
inc:
	addi x1, x1, #1
	ret
	`
	for _, s := range []Scheme{Baseline, Reuse} {
		c := runScheme(t, src, s, nil)
		x, _ := c.ArchRegs()
		if x[10] != 100 {
			t.Errorf("%v: x10 = %d, want 100", s, x[10])
		}
	}
}

// TestAllWorkloadsDifferential is the heavyweight correctness gate: every
// workload, both schemes, checksum + lockstep oracle.
func TestAllWorkloadsDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential suite in -short mode")
	}
	for _, w := range workloads.Small() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			for _, s := range []Scheme{Baseline, Reuse} {
				cfg := DefaultConfig(s)
				cfg.CheckOracle = true
				cfg.MaxCycles = 50_000_000
				c := New(cfg, w.Program())
				if err := c.Run(); err != nil {
					t.Fatalf("%v: %v", s, err)
				}
				if !c.Halted() {
					t.Fatalf("%v: did not halt", s)
				}
				x, _ := c.ArchRegs()
				if x[workloads.CheckReg] != w.Want {
					t.Errorf("%v: checksum %#x, want %#x", s, x[workloads.CheckReg], w.Want)
				}
			}
		})
	}
}

// TestWorkloadsUnderTinyRegisterFiles stresses rename stalls, reuse chains,
// repairs and shadow recovery with the oracle on.
func TestWorkloadsUnderTinyRegisterFiles(t *testing.T) {
	if testing.Short() {
		t.Skip("stress suite in -short mode")
	}
	names := []string{"poly_horner", "qsortint", "gmm_score", "adpcm_enc"}
	for _, name := range names {
		w, ok := workloads.ByName(name, 1)
		if !ok {
			t.Fatalf("unknown workload %s", name)
		}
		t.Run(name, func(t *testing.T) {
			for _, s := range []Scheme{Baseline, Reuse} {
				cfg := DefaultConfig(s)
				cfg.CheckOracle = true
				cfg.MaxCycles = 100_000_000
				cfg.InterruptEvery = 5000
				if s == Baseline {
					cfg.IntRegs = regfile.Uniform(44, 0)
					cfg.FPRegs = regfile.Uniform(44, 0)
				} else {
					cfg.IntRegs = regfile.BankSizes{34, 4, 3, 3}
					cfg.FPRegs = regfile.BankSizes{34, 4, 3, 3}
				}
				c := New(cfg, w.Program())
				if err := c.Run(); err != nil {
					t.Fatalf("%v: %v", s, err)
				}
				x, _ := c.ArchRegs()
				if x[workloads.CheckReg] != w.Want {
					t.Errorf("%v: checksum %#x, want %#x", s, x[workloads.CheckReg], w.Want)
				}
			}
		})
	}
}

func TestArchFPState(t *testing.T) {
	src := `
	fmovi f5, #2.5
	fmovi f6, #1.25
	fadd  f7, f5, f6
	halt
	`
	c := runScheme(t, src, Reuse, nil)
	_, f := c.ArchRegs()
	if f[7] != 3.75 {
		t.Errorf("f7 = %g, want 3.75", f[7])
	}
	if math.IsNaN(f[0]) {
		t.Error("uninitialized register should read as zero")
	}
}
