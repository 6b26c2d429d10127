// Package isa defines the instruction set architecture simulated by this
// repository: a 64-bit, ARM-like, load/store RISC ISA with decoupled integer
// and floating-point register files.
//
// The ISA is deliberately small but spans the dependence shapes that matter
// for register-renaming studies: integer ALU chains, long-latency multiplies
// and divides, dense floating-point expression trees, loads and stores with
// base+offset addressing, and compare-and-branch control flow. Instructions
// occupy 4 bytes of PC space (like AArch64), which is what the instruction
// cache model sees; the simulator operates on the decoded form.
package isa

import "fmt"

// Architectural register-file geometry. Integer register 31 (XZR) reads as
// zero and discards writes, mirroring AArch64; it is never renamed.
const (
	// NumIntRegs is the number of integer logical registers, including XZR.
	NumIntRegs = 32
	// NumFPRegs is the number of floating-point logical registers.
	NumFPRegs = 32
	// ZeroReg is the integer register index that is hardwired to zero.
	ZeroReg = 31
	// LinkReg is the integer register written by BL (branch-and-link).
	LinkReg = 30
	// InstBytes is the PC footprint of one instruction.
	InstBytes = 4
)

// Op enumerates every operation in the ISA.
type Op uint8

// Integer operations.
const (
	NOP Op = iota
	HALT

	// Integer register-register ALU.
	ADD
	SUB
	AND
	ORR
	EOR
	LSL
	LSR
	ASR
	SLT  // rd = (rs1 < rs2) signed ? 1 : 0
	SLTU // rd = (rs1 < rs2) unsigned ? 1 : 0
	MUL
	SDIV
	UDIV
	REM // signed remainder

	// Integer register-immediate ALU.
	ADDI
	ANDI
	ORRI
	EORI
	LSLI
	LSRI
	ASRI
	SLTI
	MOVI // rd = imm (64-bit immediate)

	// Memory (integer).
	LDR // rd = mem64[rs1 + imm]
	STR // mem64[rs1 + imm] = rs2

	// Memory (floating point).
	FLDR // fd = mem64[rs1 + imm]
	FSTR // mem64[rs1 + imm] = fs2

	// Floating point arithmetic.
	FADD
	FSUB
	FMUL
	FDIV
	FMIN
	FMAX
	FNEG
	FABS
	FSQRT
	FCMPLT // rd(int) = (fs1 < fs2) ? 1 : 0
	FCMPLE // rd(int) = (fs1 <= fs2) ? 1 : 0
	FCMPEQ // rd(int) = (fs1 == fs2) ? 1 : 0

	// Conversions and moves between files.
	SCVTF  // fd = float64(int64(rs1))
	FCVTZS // rd = int64(fs1), truncating
	FMOVI  // fd = float64 immediate (bits carried in Imm)

	// Control flow. Branch targets are absolute instruction addresses,
	// resolved by the assembler and carried in Imm.
	B    // unconditional
	BL   // branch and link: x30 = pc+4
	BR   // indirect branch to rs1 (RET is BR x30)
	BEQ  // if rs1 == rs2
	BNE  // if rs1 != rs2
	BLT  // if rs1 <  rs2, signed
	BGE  // if rs1 >= rs2, signed
	BLTU // if rs1 <  rs2, unsigned
	BGEU // if rs1 >= rs2, unsigned

	numOps // sentinel; keep last
)

// NumOps is the number of defined operations.
const NumOps = int(numOps)

var opNames = [...]string{
	NOP: "nop", HALT: "halt",
	ADD: "add", SUB: "sub", AND: "and", ORR: "orr", EOR: "eor",
	LSL: "lsl", LSR: "lsr", ASR: "asr", SLT: "slt", SLTU: "sltu",
	MUL: "mul", SDIV: "sdiv", UDIV: "udiv", REM: "rem",
	ADDI: "addi", ANDI: "andi", ORRI: "orri", EORI: "eori",
	LSLI: "lsli", LSRI: "lsri", ASRI: "asri", SLTI: "slti", MOVI: "movi",
	LDR: "ldr", STR: "str", FLDR: "fldr", FSTR: "fstr",
	FADD: "fadd", FSUB: "fsub", FMUL: "fmul", FDIV: "fdiv",
	FMIN: "fmin", FMAX: "fmax", FNEG: "fneg", FABS: "fabs", FSQRT: "fsqrt",
	FCMPLT: "fcmplt", FCMPLE: "fcmple", FCMPEQ: "fcmpeq",
	SCVTF: "scvtf", FCVTZS: "fcvtzs", FMOVI: "fmovi",
	B: "b", BL: "bl", BR: "br",
	BEQ: "beq", BNE: "bne", BLT: "blt", BGE: "bge", BLTU: "bltu", BGEU: "bgeu",
}

// String returns the assembler mnemonic for op.
func (op Op) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Valid reports whether op is a defined operation.
func (op Op) Valid() bool { return op < numOps }

// RegClass distinguishes the two architectural register files.
type RegClass uint8

const (
	// IntReg selects the integer register file.
	IntReg RegClass = iota
	// FPReg selects the floating-point register file.
	FPReg
	// NoReg marks an absent operand.
	NoReg
)

// String returns a short name for the register class.
func (c RegClass) String() string {
	switch c {
	case IntReg:
		return "int"
	case FPReg:
		return "fp"
	default:
		return "none"
	}
}

// Inst is one decoded instruction. Rd/Rs1/Rs2 are logical register indices
// whose interpretation (integer vs floating point file, present vs absent)
// is given by the Op; see the operand-description helpers in operands.go.
//
// Imm carries the immediate: an ALU immediate, a memory offset, an absolute
// branch target, or (for FMOVI) the IEEE-754 bit pattern of a float64.
type Inst struct {
	Op  Op
	Rd  uint8
	Rs1 uint8
	Rs2 uint8
	Imm int64
}

// String renders the instruction in assembler syntax.
func (in Inst) String() string {
	d := in.Op.Describe()
	switch in.Op {
	case NOP, HALT:
		return in.Op.String()
	case MOVI:
		return fmt.Sprintf("movi %s, #%d", regName(IntReg, in.Rd), in.Imm)
	case FMOVI:
		return fmt.Sprintf("fmovi %s, #%g", regName(FPReg, in.Rd), Float64FromBits(in.Imm))
	case LDR, FLDR:
		return fmt.Sprintf("%s %s, [%s, #%d]", in.Op, regName(d.DestClass, in.Rd), regName(IntReg, in.Rs1), in.Imm)
	case STR, FSTR:
		return fmt.Sprintf("%s %s, [%s, #%d]", in.Op, regName(d.Src2Class, in.Rs2), regName(IntReg, in.Rs1), in.Imm)
	case B, BL:
		return fmt.Sprintf("%s 0x%x", in.Op, in.Imm)
	case BR:
		return fmt.Sprintf("br %s", regName(IntReg, in.Rs1))
	case BEQ, BNE, BLT, BGE, BLTU, BGEU:
		return fmt.Sprintf("%s %s, %s, 0x%x", in.Op, regName(IntReg, in.Rs1), regName(IntReg, in.Rs2), in.Imm)
	}
	// Generic ALU forms.
	s := in.Op.String()
	if d.DestClass != NoReg {
		s += " " + regName(d.DestClass, in.Rd)
	}
	if d.Src1Class != NoReg {
		s += ", " + regName(d.Src1Class, in.Rs1)
	}
	if d.Src2Class != NoReg {
		s += ", " + regName(d.Src2Class, in.Rs2)
	}
	if d.HasImm {
		s += fmt.Sprintf(", #%d", in.Imm)
	}
	return s
}

func regName(c RegClass, r uint8) string {
	switch c {
	case FPReg:
		return fmt.Sprintf("f%d", r)
	default:
		if r == ZeroReg {
			return "xzr"
		}
		return fmt.Sprintf("x%d", r)
	}
}
