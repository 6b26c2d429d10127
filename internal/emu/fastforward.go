package emu

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/isa"
	"repro/internal/prog"
)

// StepN executes up to n instructions as fast as possible: no commit records
// are produced, the PC and instruction count live in registers for the whole
// batch, instructions come straight off the micro-op table's pre-decoded
// instruction column (the same table the detailed pipeline reads its decoded
// operand metadata from, so the two paths cannot disagree on what a pc
// holds), and memory goes through Memory's page table inline. It is the
// fast-forward engine behind internal/ckpt — architecturally it is
// bit-identical to n calls of Step.
//
// It returns the number of instructions executed, which is less than n only
// when the program halts (not an error) or crashes (the error describes the
// fault; architectural state is left at the faulting instruction, exactly as
// Step leaves it).
func (s *State) StepN(n uint64) (uint64, error) { return s.run(n, nil) }

// run is the one batch interpreter behind StepN and RunToHaltBatch. It
// executes up to max instructions and stops early at HALT (which commits)
// or a crash (which does not).
//
// The per-instruction path touches only the machine state, so pc, the
// executed count, max and the text length stay in registers. Commit rows
// are recorded per straight-line run instead: with a recorder (nil for
// StepN), each taken branch hands it the run that ends at the branch, and
// the one exit block hands it the run in progress (which ends after HALT,
// or before a faulting or unfetchable instruction, or at the end of the
// budget) and flushes its partial batch. The same exit block writes pc and
// the instruction count back to State on every exit path, so crash
// messages and later calls read the synced state, and a sink has then
// seen exactly the committed prefix.
//
// The loop keeps its own op switch rather than routing the ALU cases
// through ExecOps, which was measured at about half the rate (DESIGN.md
// §14); TestStepNMatchesStep, TestRunToHaltBatchMatchesStep and
// FuzzInterpretersAgree pin it against Step.
func (s *State) run(max uint64, rec *recorder) (uint64, error) {
	if s.halted {
		if max == 0 {
			return 0, nil
		}
		return 0, s.crash("step after halt")
	}
	// Integer registers are read and written raw: an XZR write goes
	// through and is undone at the end of the instruction, as in Step, so
	// X[31] reads zero at the start of every instruction, the first one
	// included.
	s.X[isa.ZeroReg] = 0
	insts := s.prog.UOps().Inst
	mem := s.Mem
	pc := s.PC
	if rec != nil {
		rec.first = pc
	}
	var executed uint64
	var fault string // set on a crash exit

loop:
	for executed < max {
		idx := (pc - prog.TextBase) / isa.InstBytes
		// pc < TextBase wraps idx around to a huge value, so one bound
		// check covers both ends of the text section.
		if idx >= uint64(len(insts)) || pc%isa.InstBytes != 0 {
			fault = "fetch outside text section"
			break
		}
		in := &insts[idx]
		next := pc + isa.InstBytes

		switch in.Op {
		case isa.NOP:
		case isa.HALT:
			// Step advances PC past the halt like any other straight-line
			// instruction and commits it; match it exactly.
			s.halted = true
			pc = next
			executed++
			break loop

		case isa.ADD:
			s.X[in.Rd] = s.X[in.Rs1] + s.X[in.Rs2]
		case isa.SUB:
			s.X[in.Rd] = s.X[in.Rs1] - s.X[in.Rs2]
		case isa.AND:
			s.X[in.Rd] = s.X[in.Rs1] & s.X[in.Rs2]
		case isa.ORR:
			s.X[in.Rd] = s.X[in.Rs1] | s.X[in.Rs2]
		case isa.EOR:
			s.X[in.Rd] = s.X[in.Rs1] ^ s.X[in.Rs2]
		case isa.LSL:
			s.X[in.Rd] = s.X[in.Rs1] << (s.X[in.Rs2] & 63)
		case isa.LSR:
			s.X[in.Rd] = s.X[in.Rs1] >> (s.X[in.Rs2] & 63)
		case isa.ASR:
			s.X[in.Rd] = uint64(int64(s.X[in.Rs1]) >> (s.X[in.Rs2] & 63))
		case isa.SLT:
			s.X[in.Rd] = b2u(int64(s.X[in.Rs1]) < int64(s.X[in.Rs2]))
		case isa.SLTU:
			s.X[in.Rd] = b2u(s.X[in.Rs1] < s.X[in.Rs2])
		case isa.MUL:
			s.X[in.Rd] = s.X[in.Rs1] * s.X[in.Rs2]
		case isa.SDIV:
			s.X[in.Rd] = uint64(sdiv(int64(s.X[in.Rs1]), int64(s.X[in.Rs2])))
		case isa.UDIV:
			s.X[in.Rd] = udiv(s.X[in.Rs1], s.X[in.Rs2])
		case isa.REM:
			s.X[in.Rd] = uint64(srem(int64(s.X[in.Rs1]), int64(s.X[in.Rs2])))

		case isa.ADDI:
			s.X[in.Rd] = s.X[in.Rs1] + uint64(in.Imm)
		case isa.ANDI:
			s.X[in.Rd] = s.X[in.Rs1] & uint64(in.Imm)
		case isa.ORRI:
			s.X[in.Rd] = s.X[in.Rs1] | uint64(in.Imm)
		case isa.EORI:
			s.X[in.Rd] = s.X[in.Rs1] ^ uint64(in.Imm)
		case isa.LSLI:
			s.X[in.Rd] = s.X[in.Rs1] << (uint64(in.Imm) & 63)
		case isa.LSRI:
			s.X[in.Rd] = s.X[in.Rs1] >> (uint64(in.Imm) & 63)
		case isa.ASRI:
			s.X[in.Rd] = uint64(int64(s.X[in.Rs1]) >> (uint64(in.Imm) & 63))
		case isa.SLTI:
			s.X[in.Rd] = b2u(int64(s.X[in.Rs1]) < in.Imm)
		case isa.MOVI:
			s.X[in.Rd] = uint64(in.Imm)

		case isa.LDR, isa.FLDR:
			addr := s.X[in.Rs1] + uint64(in.Imm)
			if addr%8 != 0 {
				fault = fmt.Sprintf("misaligned load at %#x", addr)
				break loop
			}
			// An aligned word never straddles a page, so a table hit is
			// one read; only a miss calls into Memory. Masking with
			// pageMask&^7, a no-op on an aligned address, lets the
			// compiler drop the bounds check here and in the store.
			var v uint64
			if p := mem.cached(addr); p != nil {
				v = binary.LittleEndian.Uint64(p[addr&(pageMask&^7):])
			} else {
				v = mem.LoadWord64(addr)
			}
			if in.Op == isa.LDR {
				s.X[in.Rd] = v
			} else {
				s.F[in.Rd] = math.Float64frombits(v)
			}
		case isa.STR, isa.FSTR:
			addr := s.X[in.Rs1] + uint64(in.Imm)
			if addr%8 != 0 {
				fault = fmt.Sprintf("misaligned store at %#x", addr)
				break loop
			}
			var v uint64
			if in.Op == isa.STR {
				v = s.X[in.Rs2]
			} else {
				v = math.Float64bits(s.F[in.Rs2])
			}
			if p := mem.cached(addr); p != nil {
				binary.LittleEndian.PutUint64(p[addr&(pageMask&^7):], v)
			} else {
				mem.StoreWord64(addr, v)
			}

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
			s.X[in.Rd] = b2u(s.F[in.Rs1] < s.F[in.Rs2])
		case isa.FCMPLE:
			s.X[in.Rd] = b2u(s.F[in.Rs1] <= s.F[in.Rs2])
		case isa.FCMPEQ:
			s.X[in.Rd] = b2u(s.F[in.Rs1] == s.F[in.Rs2])
		case isa.SCVTF:
			s.F[in.Rd] = float64(int64(s.X[in.Rs1]))
		case isa.FCVTZS:
			s.X[in.Rd] = uint64(fcvtzs(s.F[in.Rs1]))
		case isa.FMOVI:
			s.F[in.Rd] = isa.Float64FromBits(in.Imm)

		// A taken branch ends a straight-line run; the branch itself is
		// its last row.
		case isa.B:
			next = uint64(in.Imm)
			if rec != nil && !rec.jump(pc, next) {
				rec.jumpSpill(pc, next)
			}
		case isa.BL:
			s.X[in.Rd] = pc + isa.InstBytes
			next = uint64(in.Imm)
			if rec != nil && !rec.jump(pc, next) {
				rec.jumpSpill(pc, next)
			}
		case isa.BR:
			next = s.X[in.Rs1]
			if rec != nil && !rec.jump(pc, next) {
				rec.jumpSpill(pc, next)
			}
		case isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.BLTU, isa.BGEU:
			if CondTaken(in.Op, s.X[in.Rs1], s.X[in.Rs2]) {
				next = uint64(in.Imm)
				if rec != nil && !rec.jump(pc, next) {
					rec.jumpSpill(pc, next)
				}
			}

		default:
			fault = fmt.Sprintf("unimplemented op %v", in.Op)
			break loop
		}

		s.X[isa.ZeroReg] = 0
		pc = next
		executed++
	}

	s.PC = pc
	s.count += executed
	if rec != nil {
		rec.through(pc)
		rec.flush()
	}
	if fault != "" {
		return executed, s.crash(fault)
	}
	return executed, nil
}
