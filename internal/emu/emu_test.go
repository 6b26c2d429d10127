package emu

import (
	"math"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/prog"
)

func run(t *testing.T, src string) *State {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	s := New(p)
	if _, err := s.RunToHalt(1_000_000, nil); err != nil {
		t.Fatalf("run: %v", err)
	}
	return s
}

func TestArithmetic(t *testing.T) {
	s := run(t, `
		movi x1, #6
		movi x2, #7
		mul  x3, x1, x2      ; 42
		add  x4, x3, x1      ; 48
		sub  x5, x4, x2      ; 41
		movi x6, #-5
		sdiv x7, x6, x2      ; -5/7 = 0
		movi x8, #100
		sdiv x9, x8, x2      ; 14
		rem  x10, x8, x2     ; 2
		slt  x11, x6, x1     ; 1 (signed)
		sltu x12, x6, x1     ; 0 (unsigned: -5 is huge)
		halt
	`)
	want := map[int]uint64{3: 42, 4: 48, 5: 41, 7: 0, 9: 14, 10: 2, 11: 1, 12: 0}
	for r, v := range want {
		if s.X[r] != v {
			t.Errorf("x%d = %d, want %d", r, int64(s.X[r]), int64(v))
		}
	}
}

func TestShiftsAndLogic(t *testing.T) {
	s := run(t, `
		movi x1, #0xF0
		lsli x2, x1, #4      ; 0xF00
		lsri x3, x2, #8      ; 0xF
		movi x4, #-16
		asri x5, x4, #2      ; -4
		andi x6, x1, #0x30   ; 0x30
		orri x7, x1, #0x0F   ; 0xFF
		eori x8, x7, #0xFF   ; 0
		halt
	`)
	if s.X[2] != 0xF00 || s.X[3] != 0xF || int64(s.X[5]) != -4 ||
		s.X[6] != 0x30 || s.X[7] != 0xFF || s.X[8] != 0 {
		t.Errorf("got x2=%#x x3=%#x x5=%d x6=%#x x7=%#x x8=%#x",
			s.X[2], s.X[3], int64(s.X[5]), s.X[6], s.X[7], s.X[8])
	}
}

func TestDivisionEdgeCases(t *testing.T) {
	s := run(t, `
		movi x1, #10
		movi x2, #0
		sdiv x3, x1, x2      ; -1
		udiv x4, x1, x2      ; all ones
		rem  x5, x1, x2      ; 10
		movi x6, #-9223372036854775808
		movi x7, #-1
		sdiv x8, x6, x7      ; MinInt64 (overflow)
		rem  x9, x6, x7      ; 0
		halt
	`)
	if int64(s.X[3]) != -1 {
		t.Errorf("sdiv by zero = %d, want -1", int64(s.X[3]))
	}
	if s.X[4] != ^uint64(0) {
		t.Errorf("udiv by zero = %#x", s.X[4])
	}
	if s.X[5] != 10 {
		t.Errorf("rem by zero = %d, want 10", s.X[5])
	}
	if int64(s.X[8]) != math.MinInt64 || s.X[9] != 0 {
		t.Errorf("overflow div: %d rem %d", int64(s.X[8]), s.X[9])
	}
}

func TestMemoryAndData(t *testing.T) {
	s := run(t, `
		la   x1, vals
		ldr  x2, [x1, #0]    ; 11
		ldr  x3, [x1, #8]    ; 22
		add  x4, x2, x3      ; 33
		la   x5, out
		str  x4, [x5, #0]
		ldr  x6, [x5, #0]    ; 33 back
		halt
	.data
	vals: .word 11, 22
	out:  .space 8
	`)
	if s.X[4] != 33 || s.X[6] != 33 {
		t.Errorf("x4=%d x6=%d, want 33", s.X[4], s.X[6])
	}
	out, _ := s.Program().Symbol("out")
	if got := s.Mem.LoadWord64(out); got != 33 {
		t.Errorf("mem[out] = %d, want 33", got)
	}
}

func TestFloatingPoint(t *testing.T) {
	s := run(t, `
		fmovi f0, #1.5
		fmovi f1, #2.5
		fadd  f2, f0, f1     ; 4.0
		fmul  f3, f2, f2     ; 16.0
		fsqrt f4, f3         ; 4.0
		fdiv  f5, f3, f1     ; 6.4
		fneg  f6, f5
		fabs  f7, f6         ; 6.4
		fcmplt x1, f0, f1    ; 1
		fcmpeq x2, f4, f2    ; 1
		movi  x3, #-3
		scvtf f8, x3         ; -3.0
		fmovi f9, #2.9
		fcvtzs x4, f9        ; 2
		halt
	`)
	if s.F[2] != 4 || s.F[3] != 16 || s.F[4] != 4 {
		t.Errorf("f2=%g f3=%g f4=%g", s.F[2], s.F[3], s.F[4])
	}
	if math.Abs(s.F[7]-6.4) > 1e-12 {
		t.Errorf("f7 = %g, want 6.4", s.F[7])
	}
	if s.X[1] != 1 || s.X[2] != 1 || s.F[8] != -3 || s.X[4] != 2 {
		t.Errorf("x1=%d x2=%d f8=%g x4=%d", s.X[1], s.X[2], s.F[8], s.X[4])
	}
}

func TestFPLoadStore(t *testing.T) {
	s := run(t, `
		la    x1, d
		fldr  f0, [x1, #0]
		fldr  f1, [x1, #8]
		fadd  f2, f0, f1
		la    x2, out
		fstr  f2, [x2, #0]
		fldr  f3, [x2, #0]
		halt
	.data
	d:   .double 1.25, 2.75
	out: .space 8
	`)
	if s.F[2] != 4.0 || s.F[3] != 4.0 {
		t.Errorf("f2=%g f3=%g, want 4", s.F[2], s.F[3])
	}
}

func TestLoopAndBranches(t *testing.T) {
	// Sum 1..10 with a countdown loop.
	s := run(t, `
		movi x1, #10
		movi x2, #0
	loop:
		add  x2, x2, x1
		subi x1, x1, #1
		bne  x1, xzr, loop
		halt
	`)
	if s.X[2] != 55 {
		t.Errorf("sum = %d, want 55", s.X[2])
	}
}

func TestCallReturn(t *testing.T) {
	s := run(t, `
		movi x1, #5
		bl   double
		bl   double
		halt
	double:
		add  x1, x1, x1
		ret
	`)
	if s.X[1] != 20 {
		t.Errorf("x1 = %d, want 20", s.X[1])
	}
}

func TestIndirectBranch(t *testing.T) {
	s := run(t, `
		la   x1, target
		br   x1
		movi x2, #99         ; skipped
	target:
		movi x3, #7
		halt
	`)
	if s.X[2] != 0 || s.X[3] != 7 {
		t.Errorf("x2=%d x3=%d", s.X[2], s.X[3])
	}
}

func TestZeroRegister(t *testing.T) {
	s := run(t, `
		movi x1, #3
		add  x2, x1, xzr     ; 3
		halt
	`)
	if s.X[2] != 3 || s.X[isa.ZeroReg] != 0 {
		t.Errorf("x2=%d xzr=%d", s.X[2], s.X[isa.ZeroReg])
	}
}

func TestStackPointerInitialized(t *testing.T) {
	s := run(t, `
		subi sp, sp, #16
		str  lr, [sp, #0]
		halt
	`)
	if s.X[29] != prog.StackTop-16 {
		t.Errorf("sp = %#x, want %#x", s.X[29], prog.StackTop-16)
	}
}

func TestMisalignedAccessCrashes(t *testing.T) {
	p, err := asm.Assemble(`
		movi x1, #4097
		ldr  x2, [x1, #0]
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	s := New(p)
	if _, err := s.RunToHalt(100, nil); err == nil {
		t.Error("expected misaligned load to crash")
	}
}

func TestRunawayGuard(t *testing.T) {
	p, err := asm.Assemble(`
	spin: b spin
	`)
	if err != nil {
		t.Fatal(err)
	}
	s := New(p)
	if _, err := s.RunToHalt(1000, nil); err == nil {
		t.Error("expected runaway guard to fire")
	}
}

func TestCommitRecords(t *testing.T) {
	p, err := asm.Assemble(`
		movi x1, #8
		la   x2, buf
		str  x1, [x2, #0]
		beq  x1, xzr, skip
		movi x3, #1
	skip:
		halt
	.data
	buf: .space 8
	`)
	if err != nil {
		t.Fatal(err)
	}
	s := New(p)
	var commits []Commit
	if _, err := s.RunToHalt(100, func(c Commit) { commits = append(commits, c) }); err != nil {
		t.Fatal(err)
	}
	if len(commits) != 6 {
		t.Fatalf("got %d commits, want 6", len(commits))
	}
	buf, _ := p.Symbol("buf")
	if commits[2].EffAddr != buf {
		t.Errorf("store effaddr = %#x, want %#x", commits[2].EffAddr, buf)
	}
	if commits[3].Taken {
		t.Error("beq x1(8), xzr should not be taken")
	}
	for i, c := range commits {
		if c.Seq != uint64(i) {
			t.Errorf("commit %d has seq %d", i, c.Seq)
		}
	}
	if commits[4].NextPC != commits[5].PC {
		t.Error("NextPC chain broken")
	}
}

func TestExecOpsMatchesStep(t *testing.T) {
	// Every register-writing non-load op computed via ExecOps must agree
	// with Step's result. Exercise a representative subset with fixed values.
	cases := []isa.Inst{
		{Op: isa.ADD, Rd: 3, Rs1: 1, Rs2: 2},
		{Op: isa.SUB, Rd: 3, Rs1: 1, Rs2: 2},
		{Op: isa.MUL, Rd: 3, Rs1: 1, Rs2: 2},
		{Op: isa.SDIV, Rd: 3, Rs1: 1, Rs2: 2},
		{Op: isa.ASR, Rd: 3, Rs1: 1, Rs2: 2},
		{Op: isa.SLTU, Rd: 3, Rs1: 1, Rs2: 2},
		{Op: isa.ADDI, Rd: 3, Rs1: 1, Imm: -7},
		{Op: isa.FADD, Rd: 3, Rs1: 1, Rs2: 2},
		{Op: isa.FDIV, Rd: 3, Rs1: 1, Rs2: 2},
		{Op: isa.FCMPLE, Rd: 3, Rs1: 1, Rs2: 2},
		{Op: isa.SCVTF, Rd: 3, Rs1: 1},
		{Op: isa.FCVTZS, Rd: 3, Rs1: 1},
	}
	for _, in := range cases {
		p, err := prog.New([]isa.Inst{in, {Op: isa.HALT}}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		s := New(p)
		s.X[1], s.X[2] = 0xfffffffffffffffb, 3 // -5, 3
		s.F[1], s.F[2] = 2.5, -1.25
		var v1, v2 uint64
		d := in.Op.Describe()
		switch d.Src1Class {
		case isa.IntReg:
			v1 = s.X[1]
		case isa.FPReg:
			v1 = math.Float64bits(s.F[1])
		}
		switch d.Src2Class {
		case isa.IntReg:
			v2 = s.X[2]
		case isa.FPReg:
			v2 = math.Float64bits(s.F[2])
		}
		want := ExecOps(in, v1, v2, p.Entry())
		if _, err := s.Step(); err != nil {
			t.Fatalf("%v: %v", in, err)
		}
		var got uint64
		switch d.DestClass {
		case isa.IntReg:
			got = s.X[3]
		case isa.FPReg:
			got = math.Float64bits(s.F[3])
		}
		if got != want {
			t.Errorf("%v: ExecOps=%#x Step=%#x", in, want, got)
		}
	}
}
