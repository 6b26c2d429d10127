// Package emu implements the architectural (functional) emulator for the
// ISA. It is the correctness oracle for the timing simulator: it runs
// programs instruction-at-a-time with no microarchitectural state, and its
// committed-instruction stream feeds the trace analyses behind Figures 1-3
// of the paper.
//
//repro:deterministic
package emu

import (
	"fmt"
	"math"

	"repro/internal/isa"
	"repro/internal/prog"
)

// Commit describes one architecturally executed instruction.
type Commit struct {
	Seq     uint64   // dynamic instruction number, starting at 0
	PC      uint64   // address of the instruction
	Inst    isa.Inst // the decoded instruction
	NextPC  uint64   // PC of the next instruction in program order
	Taken   bool     // for branches: whether the branch was taken
	EffAddr uint64   // for loads/stores: the effective address
}

// State is the architectural machine state.
type State struct {
	X   [isa.NumIntRegs]uint64 // integer registers; X[31] reads as zero
	F   [isa.NumFPRegs]float64 // floating-point registers
	PC  uint64
	Mem *Memory

	prog   *prog.Program //repro:allow snapshot immutable loaded program, re-supplied by New
	halted bool
	count  uint64
}

// New creates a machine loaded with p: data image installed, PC at the entry
// point, stack pointer (x29) at prog.StackTop.
func New(p *prog.Program) *State {
	s := &State{Mem: BootMemory(p), PC: p.Entry(), prog: p}
	s.X[29] = prog.StackTop
	return s
}

// BootMemory returns a fresh memory holding p's initial data image, copied
// in one run at a time. It is the one memory boot path: the emulator and
// the detailed core (when not booting from a snapshot) both start from it.
func BootMemory(p *prog.Program) *Memory {
	m := NewMemory()
	for _, d := range p.DataSegments() {
		m.StoreBytes(d.Addr, d.Bytes)
	}
	return m
}

// Halted reports whether the program has executed HALT.
func (s *State) Halted() bool { return s.halted }

// InstCount returns the number of instructions executed so far.
func (s *State) InstCount() uint64 { return s.count }

// Program returns the loaded program.
func (s *State) Program() *prog.Program { return s.prog }

// CrashError reports an architectural error (bad fetch, misaligned access).
type CrashError struct {
	PC  uint64
	Seq uint64
	Msg string
}

func (e *CrashError) Error() string {
	return fmt.Sprintf("emu: crash at pc=%#x (inst %d): %s", e.PC, e.Seq, e.Msg)
}

func (s *State) crash(msg string) error {
	return &CrashError{PC: s.PC, Seq: s.count, Msg: msg}
}

// Step executes one instruction and returns its commit record.
func (s *State) Step() (Commit, error) {
	if s.halted {
		return Commit{}, s.crash("step after halt")
	}
	in, ok := s.prog.Fetch(s.PC)
	if !ok {
		return Commit{}, s.crash("fetch outside text section")
	}
	c := Commit{Seq: s.count, PC: s.PC, Inst: in}
	next := s.PC + isa.InstBytes

	x := func(r uint8) uint64 {
		if r == isa.ZeroReg {
			return 0
		}
		return s.X[r]
	}
	setX := func(r uint8, v uint64) {
		if r != isa.ZeroReg {
			s.X[r] = v
		}
	}

	switch in.Op {
	case isa.NOP:
	case isa.HALT:
		s.halted = true

	case isa.ADD:
		setX(in.Rd, x(in.Rs1)+x(in.Rs2))
	case isa.SUB:
		setX(in.Rd, x(in.Rs1)-x(in.Rs2))
	case isa.AND:
		setX(in.Rd, x(in.Rs1)&x(in.Rs2))
	case isa.ORR:
		setX(in.Rd, x(in.Rs1)|x(in.Rs2))
	case isa.EOR:
		setX(in.Rd, x(in.Rs1)^x(in.Rs2))
	case isa.LSL:
		setX(in.Rd, x(in.Rs1)<<(x(in.Rs2)&63))
	case isa.LSR:
		setX(in.Rd, x(in.Rs1)>>(x(in.Rs2)&63))
	case isa.ASR:
		setX(in.Rd, uint64(int64(x(in.Rs1))>>(x(in.Rs2)&63)))
	case isa.SLT:
		setX(in.Rd, b2u(int64(x(in.Rs1)) < int64(x(in.Rs2))))
	case isa.SLTU:
		setX(in.Rd, b2u(x(in.Rs1) < x(in.Rs2)))
	case isa.MUL:
		setX(in.Rd, x(in.Rs1)*x(in.Rs2))
	case isa.SDIV:
		setX(in.Rd, uint64(sdiv(int64(x(in.Rs1)), int64(x(in.Rs2)))))
	case isa.UDIV:
		setX(in.Rd, udiv(x(in.Rs1), x(in.Rs2)))
	case isa.REM:
		setX(in.Rd, uint64(srem(int64(x(in.Rs1)), int64(x(in.Rs2)))))

	case isa.ADDI:
		setX(in.Rd, x(in.Rs1)+uint64(in.Imm))
	case isa.ANDI:
		setX(in.Rd, x(in.Rs1)&uint64(in.Imm))
	case isa.ORRI:
		setX(in.Rd, x(in.Rs1)|uint64(in.Imm))
	case isa.EORI:
		setX(in.Rd, x(in.Rs1)^uint64(in.Imm))
	case isa.LSLI:
		setX(in.Rd, x(in.Rs1)<<(uint64(in.Imm)&63))
	case isa.LSRI:
		setX(in.Rd, x(in.Rs1)>>(uint64(in.Imm)&63))
	case isa.ASRI:
		setX(in.Rd, uint64(int64(x(in.Rs1))>>(uint64(in.Imm)&63)))
	case isa.SLTI:
		setX(in.Rd, b2u(int64(x(in.Rs1)) < in.Imm))
	case isa.MOVI:
		setX(in.Rd, uint64(in.Imm))

	case isa.LDR, isa.FLDR:
		addr := x(in.Rs1) + uint64(in.Imm)
		if addr%8 != 0 {
			return Commit{}, s.crash(fmt.Sprintf("misaligned load at %#x", addr))
		}
		c.EffAddr = addr
		v := s.Mem.LoadWord64(addr)
		if in.Op == isa.LDR {
			setX(in.Rd, v)
		} else {
			s.F[in.Rd] = math.Float64frombits(v)
		}
	case isa.STR, isa.FSTR:
		addr := x(in.Rs1) + uint64(in.Imm)
		if addr%8 != 0 {
			return Commit{}, s.crash(fmt.Sprintf("misaligned store at %#x", addr))
		}
		c.EffAddr = addr
		var v uint64
		if in.Op == isa.STR {
			v = x(in.Rs2)
		} else {
			v = math.Float64bits(s.F[in.Rs2])
		}
		s.Mem.StoreWord64(addr, v)

	case isa.FADD:
		s.F[in.Rd] = s.F[in.Rs1] + s.F[in.Rs2]
	case isa.FSUB:
		s.F[in.Rd] = s.F[in.Rs1] - s.F[in.Rs2]
	case isa.FMUL:
		s.F[in.Rd] = s.F[in.Rs1] * s.F[in.Rs2]
	case isa.FDIV:
		s.F[in.Rd] = s.F[in.Rs1] / s.F[in.Rs2]
	case isa.FMIN:
		s.F[in.Rd] = math.Min(s.F[in.Rs1], s.F[in.Rs2])
	case isa.FMAX:
		s.F[in.Rd] = math.Max(s.F[in.Rs1], s.F[in.Rs2])
	case isa.FNEG:
		s.F[in.Rd] = -s.F[in.Rs1]
	case isa.FABS:
		s.F[in.Rd] = math.Abs(s.F[in.Rs1])
	case isa.FSQRT:
		s.F[in.Rd] = math.Sqrt(s.F[in.Rs1])
	case isa.FCMPLT:
		setX(in.Rd, b2u(s.F[in.Rs1] < s.F[in.Rs2]))
	case isa.FCMPLE:
		setX(in.Rd, b2u(s.F[in.Rs1] <= s.F[in.Rs2]))
	case isa.FCMPEQ:
		setX(in.Rd, b2u(s.F[in.Rs1] == s.F[in.Rs2]))
	case isa.SCVTF:
		s.F[in.Rd] = float64(int64(x(in.Rs1)))
	case isa.FCVTZS:
		setX(in.Rd, uint64(fcvtzs(s.F[in.Rs1])))
	case isa.FMOVI:
		s.F[in.Rd] = isa.Float64FromBits(in.Imm)

	case isa.B:
		next = uint64(in.Imm)
		c.Taken = true
	case isa.BL:
		setX(in.Rd, s.PC+isa.InstBytes)
		next = uint64(in.Imm)
		c.Taken = true
	case isa.BR:
		next = x(in.Rs1)
		c.Taken = true
	case isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.BLTU, isa.BGEU:
		if CondTaken(in.Op, x(in.Rs1), x(in.Rs2)) {
			next = uint64(in.Imm)
			c.Taken = true
		}

	default:
		return Commit{}, s.crash(fmt.Sprintf("unimplemented op %v", in.Op))
	}

	s.X[isa.ZeroReg] = 0
	c.NextPC = next
	s.PC = next
	s.count++
	return c, nil
}

// CondTaken evaluates a conditional branch's direction from its two integer
// operand values. It is shared with the timing simulator's execute stage.
func CondTaken(op isa.Op, a, b uint64) bool {
	switch op {
	case isa.BEQ:
		return a == b
	case isa.BNE:
		return a != b
	case isa.BLT:
		return int64(a) < int64(b)
	case isa.BGE:
		return int64(a) >= int64(b)
	case isa.BLTU:
		return a < b
	case isa.BGEU:
		return a >= b
	}
	panic("emu: not a conditional branch")
}

// Run executes until HALT or until max instructions have executed. fn, if
// non-nil, receives every commit record. It returns the executed count.
func (s *State) Run(max uint64, fn func(Commit)) (uint64, error) {
	start := s.count
	for !s.halted && s.count-start < max {
		c, err := s.Step()
		if err != nil {
			return s.count - start, err
		}
		if fn != nil {
			fn(c)
		}
	}
	return s.count - start, nil
}

// RunToHalt executes until HALT, failing if the program exceeds max
// instructions (runaway-loop guard).
func (s *State) RunToHalt(max uint64, fn func(Commit)) (uint64, error) {
	n, err := s.Run(max, fn)
	if err != nil {
		return n, err
	}
	if !s.halted {
		return n, fmt.Errorf("emu: program did not halt within %d instructions", max)
	}
	return n, nil
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// sdiv implements signed division with RISC-V-style edge cases: divide by
// zero yields -1, and the most-negative-value overflow yields the dividend.
func sdiv(a, b int64) int64 {
	switch {
	case b == 0:
		return -1
	case a == math.MinInt64 && b == -1:
		return a
	default:
		return a / b
	}
}

func udiv(a, b uint64) uint64 {
	if b == 0 {
		return ^uint64(0)
	}
	return a / b
}

func srem(a, b int64) int64 {
	switch {
	case b == 0:
		return a
	case a == math.MinInt64 && b == -1:
		return 0
	default:
		return a % b
	}
}

// fcvtzs converts a float64 to int64 truncating toward zero, with saturation
// on overflow and zero on NaN, so results are deterministic across hosts.
func fcvtzs(f float64) int64 {
	switch {
	case math.IsNaN(f):
		return 0
	case f >= math.MaxInt64:
		return math.MaxInt64
	case f <= math.MinInt64:
		return math.MinInt64
	default:
		return int64(f)
	}
}

// ExecOps computes the architectural result of a register-writing, non-load
// instruction from its (up to two) source values. Integer results are the
// uint64 value; FP results are the float64 bit pattern. The timing
// simulator's execute stage uses this so that emulator and pipeline share one
// definition of every operation's semantics.
//
// v1/v2 are the values of Rs1/Rs2 in the register classes the op declares
// (FP operands are passed as float64 bit patterns). pc is needed for BL.
func ExecOps(in isa.Inst, v1, v2, pc uint64) uint64 {
	f1 := math.Float64frombits(v1)
	f2 := math.Float64frombits(v2)
	switch in.Op {
	case isa.ADD:
		return v1 + v2
	case isa.SUB:
		return v1 - v2
	case isa.AND:
		return v1 & v2
	case isa.ORR:
		return v1 | v2
	case isa.EOR:
		return v1 ^ v2
	case isa.LSL:
		return v1 << (v2 & 63)
	case isa.LSR:
		return v1 >> (v2 & 63)
	case isa.ASR:
		return uint64(int64(v1) >> (v2 & 63))
	case isa.SLT:
		return b2u(int64(v1) < int64(v2))
	case isa.SLTU:
		return b2u(v1 < v2)
	case isa.MUL:
		return v1 * v2
	case isa.SDIV:
		return uint64(sdiv(int64(v1), int64(v2)))
	case isa.UDIV:
		return udiv(v1, v2)
	case isa.REM:
		return uint64(srem(int64(v1), int64(v2)))
	case isa.ADDI:
		return v1 + uint64(in.Imm)
	case isa.ANDI:
		return v1 & uint64(in.Imm)
	case isa.ORRI:
		return v1 | uint64(in.Imm)
	case isa.EORI:
		return v1 ^ uint64(in.Imm)
	case isa.LSLI:
		return v1 << (uint64(in.Imm) & 63)
	case isa.LSRI:
		return v1 >> (uint64(in.Imm) & 63)
	case isa.ASRI:
		return uint64(int64(v1) >> (uint64(in.Imm) & 63))
	case isa.SLTI:
		return b2u(int64(v1) < in.Imm)
	case isa.MOVI:
		return uint64(in.Imm)
	case isa.FADD:
		return math.Float64bits(f1 + f2)
	case isa.FSUB:
		return math.Float64bits(f1 - f2)
	case isa.FMUL:
		return math.Float64bits(f1 * f2)
	case isa.FDIV:
		return math.Float64bits(f1 / f2)
	case isa.FMIN:
		return math.Float64bits(math.Min(f1, f2))
	case isa.FMAX:
		return math.Float64bits(math.Max(f1, f2))
	case isa.FNEG:
		return math.Float64bits(-f1)
	case isa.FABS:
		return math.Float64bits(math.Abs(f1))
	case isa.FSQRT:
		return math.Float64bits(math.Sqrt(f1))
	case isa.FCMPLT:
		return b2u(f1 < f2)
	case isa.FCMPLE:
		return b2u(f1 <= f2)
	case isa.FCMPEQ:
		return b2u(f1 == f2)
	case isa.SCVTF:
		return math.Float64bits(float64(int64(v1)))
	case isa.FCVTZS:
		return uint64(fcvtzs(f1))
	case isa.FMOVI:
		return uint64(in.Imm)
	case isa.BL:
		return pc + isa.InstBytes
	}
	panic(fmt.Sprintf("emu: ExecOps called on %v", in.Op))
}
