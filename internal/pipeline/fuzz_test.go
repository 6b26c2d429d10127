package pipeline

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/asm"
	"repro/internal/ckpt"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/prog"
	"repro/internal/regfile"
)

// commitPCs is an observer that records the PC of every committed
// instruction, repair micro-ops excluded.
type commitPCs struct{ pcs []uint64 }

func (c *commitPCs) Inst(e obs.InstEvent) {
	if e.Stage == obs.StageCommit && !e.Micro {
		c.pcs = append(c.pcs, e.PC)
	}
}

func (*commitPCs) Core(obs.CoreEvent) {}
func (*commitPCs) Tick(obs.Tick)      {}

// genRandomProgram emits a structured random program that terminates by
// construction: counted loops with straight-line bodies and forward skips
// only. It exercises integer/FP ALU traffic, loads/stores into a small
// arena, reuse chains, branches, and cross-class conversions.
func genRandomProgram(r *rand.Rand) string {
	var b strings.Builder
	w := func(format string, args ...any) { fmt.Fprintf(&b, format+"\n", args...) }

	intRegs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	fpRegs := []int{0, 1, 2, 3, 4, 5}
	ir := func() int { return intRegs[r.Intn(len(intRegs))] }
	fr := func() int { return fpRegs[r.Intn(len(fpRegs))] }

	w("	la   x20, arena")
	for _, x := range intRegs {
		w("	movi x%d, #%d", x, r.Intn(1<<16)-1<<15)
	}
	for _, f := range fpRegs {
		w("	fmovi f%d, #%g", f, r.Float64()*4-2)
	}

	label := 0
	emitBody := func(n int) {
		for i := 0; i < n; i++ {
			switch r.Intn(10) {
			case 0, 1, 2: // integer ALU
				ops := []string{"add", "sub", "and", "orr", "eor", "mul", "slt", "sltu"}
				w("	%s x%d, x%d, x%d", ops[r.Intn(len(ops))], ir(), ir(), ir())
			case 3: // integer immediate
				ops := []string{"addi", "andi", "orri", "eori", "slti"}
				w("	%s x%d, x%d, #%d", ops[r.Intn(len(ops))], ir(), ir(), r.Intn(256))
			case 4: // shift by bounded immediate
				ops := []string{"lsli", "lsri", "asri"}
				w("	%s x%d, x%d, #%d", ops[r.Intn(len(ops))], ir(), ir(), r.Intn(63))
			case 5: // FP arithmetic (div/sqrt included: IEEE is deterministic)
				ops := []string{"fadd", "fsub", "fmul", "fdiv", "fmin", "fmax"}
				w("	%s f%d, f%d, f%d", ops[r.Intn(len(ops))], fr(), fr(), fr())
			case 6: // store then load through the arena
				a, v := ir(), ir()
				w("	andi x17, x%d, #504", a) // 8-aligned offset inside 512B
				w("	add  x17, x17, x20")
				w("	str  x%d, [x17, #0]", v)
				w("	ldr  x%d, [x17, #0]", ir())
			case 7: // conversions between files
				if r.Intn(2) == 0 {
					w("	scvtf f%d, x%d", fr(), ir())
				} else {
					w("	fcvtzs x%d, f%d", ir(), fr())
				}
			case 8: // forward conditional skip
				lbl := fmt.Sprintf("skip%d", label)
				label++
				w("	beq  x%d, x%d, %s", ir(), ir(), lbl)
				w("	addi x%d, x%d, #1", ir(), ir())
				w("	eor  x%d, x%d, x%d", ir(), ir(), ir())
				w("%s:", lbl)
			case 9: // division (deterministic edge semantics)
				ops := []string{"sdiv", "udiv", "rem"}
				w("	%s x%d, x%d, x%d", ops[r.Intn(len(ops))], ir(), ir(), ir())
			}
		}
	}

	// Outer repetition loop so each program runs tens of thousands of
	// dynamic instructions — enough for interrupts, mispredictions, page
	// faults and register-pressure stalls to actually occur.
	w("	movi x21, #%d", 100+r.Intn(200))
	w("outer:")
	blocks := 2 + r.Intn(3)
	for bi := 0; bi < blocks; bi++ {
		if r.Intn(2) == 0 {
			// Counted loop.
			w("	movi x19, #%d", 2+r.Intn(6))
			w("loop%d:", bi)
			emitBody(3 + r.Intn(8))
			w("	subi x19, x19, #1")
			w("	bne  x19, xzr, loop%d", bi)
		} else {
			emitBody(4 + r.Intn(10))
		}
	}

	w("	subi x21, x21, #1")
	w("	bne  x21, xzr, outer")

	// Fold state into x10.
	w("	movi x10, #0")
	for _, x := range intRegs {
		w("	add  x10, x10, x%d", x)
	}
	for _, f := range fpRegs {
		w("	fcvtzs x18, f%d", f)
		w("	eor  x10, x10, x18")
	}
	w("	halt")
	w(".data")
	w("arena: .space 512")
	return b.String()
}

// randomProgram assembles genRandomProgram's program for seed and runs the
// emulator to HALT on it as the architectural reference.
func randomProgram(seed int64) (string, *prog.Program, *emu.State, error) {
	src := genRandomProgram(rand.New(rand.NewSource(seed)))
	p, err := asm.Assemble(src)
	if err != nil {
		return src, nil, nil, fmt.Errorf("assembler rejected generated program: %v", err)
	}
	ref := emu.New(p)
	if _, err := ref.RunToHalt(3_000_000, nil); err != nil {
		return src, nil, nil, fmt.Errorf("emulator: %v", err)
	}
	return src, p, ref, nil
}

// tightRegs shrinks the register files until random programs stall for
// registers: 44 per class for the baseline, and a hybrid layout for the
// schemes with shadow cells.
func tightRegs(cfg *Config) {
	if cfg.Scheme == Baseline {
		cfg.IntRegs = regfile.Uniform(44, 0)
		cfg.FPRegs = regfile.Uniform(44, 0)
	} else {
		cfg.IntRegs = regfile.BankSizes{34, 4, 3, 3}
		cfg.FPRegs = regfile.BankSizes{34, 4, 3, 3}
	}
}

// matchesEmu runs p on a core built from cfg, with the lockstep oracle and
// the in-pipeline invariant checks on, and compares the final architectural
// state with ref's.
func matchesEmu(p *prog.Program, ref *emu.State, cfg Config) error {
	cfg.CheckOracle = true
	cfg.DebugInvariants = true
	cfg.MaxCycles = 40_000_000
	core := New(cfg, p)
	if err := core.Run(); err != nil {
		return err
	}
	if !core.Halted() {
		return fmt.Errorf("did not halt")
	}
	x, fregs := core.ArchRegs()
	for l := 0; l < isa.NumIntRegs-1; l++ {
		if x[l] != ref.X[l] {
			return fmt.Errorf("x%d = %#x, want %#x", l, x[l], ref.X[l])
		}
	}
	for l := 0; l < isa.NumFPRegs; l++ {
		if fregs[l] != ref.F[l] && !(fregs[l] != fregs[l] && ref.F[l] != ref.F[l]) {
			return fmt.Errorf("f%d = %v, want %v", l, fregs[l], ref.F[l])
		}
	}
	return nil
}

// TestRandomProgramsDifferential generates random programs and requires the
// pipeline (every scheme, stressed configurations) to commit exactly the
// emulator's instruction stream and final state. This is the repository's
// main property-based correctness gate.
func TestRandomProgramsDifferential(t *testing.T) {
	count := 60
	if testing.Short() {
		count = 10
	}
	f := func(seed int64) bool {
		src, p, ref, err := randomProgram(seed)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		for _, scheme := range []Scheme{Baseline, Reuse, EarlyRelease} {
			cfg := DefaultConfig(scheme)
			cfg.InterruptEvery = 777         // stress flush/recovery paths
			cfg.MemSpeculation = seed%2 == 0 // alternate disambiguation modes
			tightRegs(&cfg)
			if err := matchesEmu(p, ref, cfg); err != nil {
				t.Logf("seed %d %v: %v\nprogram:\n%s", seed, scheme, err, src)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: count}); err != nil {
		t.Error(err)
	}
}

// FuzzCoreMatchesEmu is the native-fuzzing form of the differential test:
// (seed, knobs) picks a genRandomProgram program and a configuration, and
// the core, under the lockstep oracle and the in-pipeline invariant checks,
// must reach the emulator's final state. Bits 0-1 of knobs pick the scheme
// (3 reads as baseline), bit 2 turns on MemSpeculation, bit 3 takes a timer
// interrupt every 777 cycles, and bit 4 shrinks the register files
// (tightRegs); the other bits are ignored. The seed corpus under
// testdata/fuzz/FuzzCoreMatchesEmu covers every scheme, both disambiguation
// modes, interrupts and tight files.
func FuzzCoreMatchesEmu(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, knobs uint8) {
		src, p, ref, err := randomProgram(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cfg := DefaultConfig(Scheme(knobs & 3 % 3))
		cfg.MemSpeculation = knobs&4 != 0
		if knobs&8 != 0 {
			cfg.InterruptEvery = 777
		}
		if knobs&16 != 0 {
			tightRegs(&cfg)
		}
		if err := matchesEmu(p, ref, cfg); err != nil {
			t.Fatalf("seed %d knobs %#x (%v): %v\nprogram:\n%s", seed, knobs, cfg.Scheme, err, src)
		}
	})
}

// TestCheckpointResumeEquivalence is the correctness gate for mid-program
// boot: for random programs, a core booted from a functional checkpoint
// (snapshot + warmup trace, the exact production path through ckpt.Prepare)
// must commit the same architectural instruction suffix and reach the same
// final architectural state as an uninterrupted detailed run — per scheme,
// with the same stressed configurations as the differential test.
func TestCheckpointResumeEquivalence(t *testing.T) {
	count := 12
	if testing.Short() {
		count = 4
	}
	f := func(seed int64) bool {
		_, p, ref, err := randomProgram(seed)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		total := ref.InstCount()
		skip := total / 3
		warmup := uint64(2000)
		if warmup > skip {
			warmup = skip
		}
		bs, _, err := ckpt.Prepare(nil, p, ckpt.ProgramDigest(p), skip, warmup)
		if err != nil {
			t.Logf("seed %d: Prepare: %v", seed, err)
			return false
		}

		for _, scheme := range []Scheme{Baseline, Reuse, EarlyRelease} {
			mkcfg := func() Config {
				cfg := DefaultConfig(scheme)
				cfg.CheckOracle = true
				cfg.DebugInvariants = true
				cfg.MaxCycles = 40_000_000
				cfg.InterruptEvery = 777
				cfg.MemSpeculation = seed%2 == 0
				tightRegs(&cfg)
				return cfg
			}
			runOne := func(cfg Config) ([]uint64, [isa.NumIntRegs]uint64, [isa.NumFPRegs]float64, error) {
				var rec commitPCs
				cfg.Observer = &rec
				core := New(cfg, p)
				if err := core.Run(); err != nil {
					var x [isa.NumIntRegs]uint64
					var fr [isa.NumFPRegs]float64
					return nil, x, fr, err
				}
				x, fr := core.ArchRegs()
				return rec.pcs, x, fr, nil
			}

			fullPCs, fullX, fullF, err := runOne(mkcfg())
			if err != nil {
				t.Logf("seed %d %v: full run: %v", seed, scheme, err)
				return false
			}
			cfg := mkcfg()
			cfg.Boot = bs.Boot
			cfg.BootWarmup = bs.Warmup
			resPCs, resX, resF, err := runOne(cfg)
			if err != nil {
				t.Logf("seed %d %v: resumed run: %v", seed, scheme, err)
				return false
			}

			if uint64(len(fullPCs)) != total || uint64(len(resPCs)) != total-skip {
				t.Logf("seed %d %v: committed %d full / %d resumed, want %d / %d",
					seed, scheme, len(fullPCs), len(resPCs), total, total-skip)
				return false
			}
			for i, pc := range resPCs {
				if fullPCs[skip+uint64(i)] != pc {
					t.Logf("seed %d %v: commit %d: resumed pc %#x, full pc %#x",
						seed, scheme, skip+uint64(i), pc, fullPCs[skip+uint64(i)])
					return false
				}
			}
			if resX != fullX {
				t.Logf("seed %d %v: final integer state differs", seed, scheme)
				return false
			}
			for l := 0; l < isa.NumFPRegs; l++ {
				if math.Float64bits(resF[l]) != math.Float64bits(fullF[l]) {
					t.Logf("seed %d %v: f%d = %v, want %v", seed, scheme, l, resF[l], fullF[l])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: count}); err != nil {
		t.Error(err)
	}
}
