package isa

import "math"

// Desc describes the operand shape and structural properties of an Op. The
// renamer, issue queue and analyses all key off this table rather than
// switching on opcodes.
type Desc struct {
	// DestClass is the register file of Rd, or NoReg when the instruction
	// has no destination register (stores, branches, NOP, HALT).
	DestClass RegClass
	// Src1Class / Src2Class give the register files of Rs1 / Rs2, or NoReg.
	Src1Class RegClass
	Src2Class RegClass
	// HasImm reports whether Imm is part of the operation (ALU immediates
	// and memory offsets; branch targets are not counted here).
	HasImm bool
	// Load / Store mark memory operations.
	Load  bool
	Store bool
	// Branch marks control-flow operations; Cond marks conditional ones;
	// Indirect marks register-target branches; Link marks BL.
	Branch   bool
	Cond     bool
	Indirect bool
	Link     bool
	// Unit is the functional-unit class that executes the operation.
	Unit FU
	// Latency is the execution latency in cycles (memory ops: address
	// generation only; cache latency is added by the memory system).
	Latency int
}

// FU enumerates functional-unit classes.
type FU uint8

const (
	// FUNone is for instructions that need no functional unit (NOP/HALT).
	FUNone FU = iota
	// FUIntALU executes single-cycle integer operations and branches.
	FUIntALU
	// FUIntMul executes integer multiply/divide.
	FUIntMul
	// FUFPALU executes floating-point add/compare/convert operations.
	FUFPALU
	// FUFPMul executes floating-point multiply/divide/sqrt.
	FUFPMul
	// FUMem generates addresses for loads and stores.
	FUMem
	// NumFUs is the number of functional-unit classes.
	NumFUs = int(FUMem) + 1
)

// String returns a short name for the functional-unit class.
func (f FU) String() string {
	switch f {
	case FUIntALU:
		return "intALU"
	case FUIntMul:
		return "intMUL"
	case FUFPALU:
		return "fpALU"
	case FUFPMul:
		return "fpMUL"
	case FUMem:
		return "mem"
	default:
		return "none"
	}
}

var descs [NumOps]Desc

func init() {
	alu := func(ops ...Op) {
		for _, op := range ops {
			descs[op] = Desc{DestClass: IntReg, Src1Class: IntReg, Src2Class: IntReg, Unit: FUIntALU, Latency: 1}
		}
	}
	alui := func(ops ...Op) {
		for _, op := range ops {
			descs[op] = Desc{DestClass: IntReg, Src1Class: IntReg, Src2Class: NoReg, HasImm: true, Unit: FUIntALU, Latency: 1}
		}
	}
	fpalu := func(lat int, ops ...Op) {
		for _, op := range ops {
			descs[op] = Desc{DestClass: FPReg, Src1Class: FPReg, Src2Class: FPReg, Unit: FUFPALU, Latency: lat}
		}
	}
	alu(ADD, SUB, AND, ORR, EOR, LSL, LSR, ASR, SLT, SLTU)
	alui(ADDI, ANDI, ORRI, EORI, LSLI, LSRI, ASRI, SLTI)

	descs[NOP] = Desc{DestClass: NoReg, Src1Class: NoReg, Src2Class: NoReg, Unit: FUNone}
	descs[HALT] = Desc{DestClass: NoReg, Src1Class: NoReg, Src2Class: NoReg, Unit: FUNone}

	descs[MOVI] = Desc{DestClass: IntReg, Src1Class: NoReg, Src2Class: NoReg, HasImm: true, Unit: FUIntALU, Latency: 1}

	descs[MUL] = Desc{DestClass: IntReg, Src1Class: IntReg, Src2Class: IntReg, Unit: FUIntMul, Latency: 3}
	descs[SDIV] = Desc{DestClass: IntReg, Src1Class: IntReg, Src2Class: IntReg, Unit: FUIntMul, Latency: 12}
	descs[UDIV] = Desc{DestClass: IntReg, Src1Class: IntReg, Src2Class: IntReg, Unit: FUIntMul, Latency: 12}
	descs[REM] = Desc{DestClass: IntReg, Src1Class: IntReg, Src2Class: IntReg, Unit: FUIntMul, Latency: 12}

	descs[LDR] = Desc{DestClass: IntReg, Src1Class: IntReg, Src2Class: NoReg, HasImm: true, Load: true, Unit: FUMem, Latency: 1}
	descs[STR] = Desc{DestClass: NoReg, Src1Class: IntReg, Src2Class: IntReg, HasImm: true, Store: true, Unit: FUMem, Latency: 1}
	descs[FLDR] = Desc{DestClass: FPReg, Src1Class: IntReg, Src2Class: NoReg, HasImm: true, Load: true, Unit: FUMem, Latency: 1}
	descs[FSTR] = Desc{DestClass: NoReg, Src1Class: IntReg, Src2Class: FPReg, HasImm: true, Store: true, Unit: FUMem, Latency: 1}

	fpalu(3, FADD, FSUB, FMIN, FMAX)
	descs[FNEG] = Desc{DestClass: FPReg, Src1Class: FPReg, Src2Class: NoReg, Unit: FUFPALU, Latency: 2}
	descs[FABS] = Desc{DestClass: FPReg, Src1Class: FPReg, Src2Class: NoReg, Unit: FUFPALU, Latency: 2}
	descs[FMUL] = Desc{DestClass: FPReg, Src1Class: FPReg, Src2Class: FPReg, Unit: FUFPMul, Latency: 4}
	descs[FDIV] = Desc{DestClass: FPReg, Src1Class: FPReg, Src2Class: FPReg, Unit: FUFPMul, Latency: 12}
	descs[FSQRT] = Desc{DestClass: FPReg, Src1Class: FPReg, Src2Class: NoReg, Unit: FUFPMul, Latency: 14}

	descs[FCMPLT] = Desc{DestClass: IntReg, Src1Class: FPReg, Src2Class: FPReg, Unit: FUFPALU, Latency: 2}
	descs[FCMPLE] = Desc{DestClass: IntReg, Src1Class: FPReg, Src2Class: FPReg, Unit: FUFPALU, Latency: 2}
	descs[FCMPEQ] = Desc{DestClass: IntReg, Src1Class: FPReg, Src2Class: FPReg, Unit: FUFPALU, Latency: 2}

	descs[SCVTF] = Desc{DestClass: FPReg, Src1Class: IntReg, Src2Class: NoReg, Unit: FUFPALU, Latency: 3}
	descs[FCVTZS] = Desc{DestClass: IntReg, Src1Class: FPReg, Src2Class: NoReg, Unit: FUFPALU, Latency: 3}
	descs[FMOVI] = Desc{DestClass: FPReg, Src1Class: NoReg, Src2Class: NoReg, HasImm: true, Unit: FUFPALU, Latency: 1}

	descs[B] = Desc{DestClass: NoReg, Src1Class: NoReg, Src2Class: NoReg, Branch: true, Unit: FUIntALU, Latency: 1}
	descs[BL] = Desc{DestClass: IntReg, Src1Class: NoReg, Src2Class: NoReg, Branch: true, Link: true, Unit: FUIntALU, Latency: 1}
	descs[BR] = Desc{DestClass: NoReg, Src1Class: IntReg, Src2Class: NoReg, Branch: true, Indirect: true, Unit: FUIntALU, Latency: 1}
	for _, op := range []Op{BEQ, BNE, BLT, BGE, BLTU, BGEU} {
		descs[op] = Desc{DestClass: NoReg, Src1Class: IntReg, Src2Class: IntReg, Branch: true, Cond: true, Unit: FUIntALU, Latency: 1}
	}
}

// Describe returns the operand description of op. It panics on an invalid
// opcode, which indicates a decoder bug rather than a recoverable condition.
func (op Op) Describe() Desc {
	if !op.Valid() {
		panic("isa: invalid opcode")
	}
	return descs[op]
}

// HasDest reports whether instructions with this opcode write a register.
// A write to the integer zero register is still reported as a destination
// here; use Inst.DestReg to account for XZR discarding writes.
func (op Op) HasDest() bool { return descs[op].DestClass != NoReg }

// DestReg returns the register class and index written by the instruction,
// or (NoReg, 0) when it writes nothing. Writes to XZR are reported as no
// destination: they allocate nothing and rename nothing.
func (in Inst) DestReg() (RegClass, uint8) {
	d := descs[in.Op]
	if d.DestClass == NoReg {
		return NoReg, 0
	}
	if d.DestClass == IntReg && in.Rd == ZeroReg {
		return NoReg, 0
	}
	return d.DestClass, in.Rd
}

// SrcRegs appends the (class, index) pairs of the instruction's register
// sources to dst and returns it. Reads of XZR are omitted: they need no
// rename lookup and carry no dependence.
func (in Inst) SrcRegs(dst []SrcOperand) []SrcOperand {
	d := descs[in.Op]
	if d.Src1Class != NoReg && !(d.Src1Class == IntReg && in.Rs1 == ZeroReg) {
		dst = append(dst, SrcOperand{Class: d.Src1Class, Reg: in.Rs1})
	}
	if d.Src2Class != NoReg && !(d.Src2Class == IntReg && in.Rs2 == ZeroReg) {
		dst = append(dst, SrcOperand{Class: d.Src2Class, Reg: in.Rs2})
	}
	return dst
}

// SrcOperand identifies one register source operand.
type SrcOperand struct {
	Class RegClass
	Reg   uint8
}

// Float64FromBits reinterprets an immediate as a float64 (used by FMOVI).
func Float64FromBits(imm int64) float64 { return math.Float64frombits(uint64(imm)) }

// BitsFromFloat64 reinterprets a float64 as an immediate (used by FMOVI).
func BitsFromFloat64(f float64) int64 { return int64(math.Float64bits(f)) }
