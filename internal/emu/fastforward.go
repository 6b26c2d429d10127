package emu

import (
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
// holds), and memory goes through the single-page word fast paths. It is the
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
// or a crash (which does not). With a nil sink nothing is recorded; with a
// sink, each committed instruction's micro-op table row is stored into a
// commitBatchRows buffer that is handed to sink.CommitBatch whenever it
// fills and once more, for the partial tail, on every exit path. The row
// store is the only per-instruction difference between the two callers and
// sits behind one predictable sink != nil branch.
//
// The loop keeps its own op switch rather than routing the ALU cases
// through ExecOps, which was measured at about half the rate (DESIGN.md
// §14); TestStepNMatchesStep, TestRunToHaltBatchMatchesStep and
// FuzzInterpretersAgree pin it against Step.
func (s *State) run(max uint64, sink CommitSink) (uint64, error) {
	if s.halted {
		if max == 0 {
			return 0, nil
		}
		return 0, s.crash("step after halt")
	}
	insts := s.prog.UOps().Inst
	mem := s.Mem
	pc := s.PC
	base := s.count
	var executed uint64
	var buf []uint32
	if sink != nil {
		buf = make([]uint32, commitBatchRows)
	}
	fill := 0

	// sync writes the batch-local state back and flushes the pending rows
	// before any exit path; crash messages and later Step calls read the
	// synced state, and a sink has then seen exactly the committed prefix.
	sync := func() {
		s.PC = pc
		s.count = base + executed
		if fill > 0 {
			sink.CommitBatch(base+executed-uint64(fill), buf[:fill])
			fill = 0
		}
	}

	for executed < max {
		idx := (pc - prog.TextBase) / isa.InstBytes
		// pc < TextBase wraps idx around to a huge value, so one bound
		// check covers both ends of the text section.
		if idx >= uint64(len(insts)) || pc%isa.InstBytes != 0 {
			sync()
			return executed, s.crash("fetch outside text section")
		}
		in := &insts[idx]
		next := pc + isa.InstBytes

		switch in.Op {
		case isa.NOP:
		case isa.HALT:
			// Step advances PC past the halt like any other straight-line
			// instruction and commits it; match it exactly.
			s.halted = true
			if sink != nil {
				buf[fill] = uint32(idx)
				fill++
			}
			pc = next
			executed++
			sync()
			return executed, nil

		case isa.ADD:
			s.setXFast(in.Rd, s.xFast(in.Rs1)+s.xFast(in.Rs2))
		case isa.SUB:
			s.setXFast(in.Rd, s.xFast(in.Rs1)-s.xFast(in.Rs2))
		case isa.AND:
			s.setXFast(in.Rd, s.xFast(in.Rs1)&s.xFast(in.Rs2))
		case isa.ORR:
			s.setXFast(in.Rd, s.xFast(in.Rs1)|s.xFast(in.Rs2))
		case isa.EOR:
			s.setXFast(in.Rd, s.xFast(in.Rs1)^s.xFast(in.Rs2))
		case isa.LSL:
			s.setXFast(in.Rd, s.xFast(in.Rs1)<<(s.xFast(in.Rs2)&63))
		case isa.LSR:
			s.setXFast(in.Rd, s.xFast(in.Rs1)>>(s.xFast(in.Rs2)&63))
		case isa.ASR:
			s.setXFast(in.Rd, uint64(int64(s.xFast(in.Rs1))>>(s.xFast(in.Rs2)&63)))
		case isa.SLT:
			s.setXFast(in.Rd, b2u(int64(s.xFast(in.Rs1)) < int64(s.xFast(in.Rs2))))
		case isa.SLTU:
			s.setXFast(in.Rd, b2u(s.xFast(in.Rs1) < s.xFast(in.Rs2)))
		case isa.MUL:
			s.setXFast(in.Rd, s.xFast(in.Rs1)*s.xFast(in.Rs2))
		case isa.SDIV:
			s.setXFast(in.Rd, uint64(sdiv(int64(s.xFast(in.Rs1)), int64(s.xFast(in.Rs2)))))
		case isa.UDIV:
			s.setXFast(in.Rd, udiv(s.xFast(in.Rs1), s.xFast(in.Rs2)))
		case isa.REM:
			s.setXFast(in.Rd, uint64(srem(int64(s.xFast(in.Rs1)), int64(s.xFast(in.Rs2)))))

		case isa.ADDI:
			s.setXFast(in.Rd, s.xFast(in.Rs1)+uint64(in.Imm))
		case isa.ANDI:
			s.setXFast(in.Rd, s.xFast(in.Rs1)&uint64(in.Imm))
		case isa.ORRI:
			s.setXFast(in.Rd, s.xFast(in.Rs1)|uint64(in.Imm))
		case isa.EORI:
			s.setXFast(in.Rd, s.xFast(in.Rs1)^uint64(in.Imm))
		case isa.LSLI:
			s.setXFast(in.Rd, s.xFast(in.Rs1)<<(uint64(in.Imm)&63))
		case isa.LSRI:
			s.setXFast(in.Rd, s.xFast(in.Rs1)>>(uint64(in.Imm)&63))
		case isa.ASRI:
			s.setXFast(in.Rd, uint64(int64(s.xFast(in.Rs1))>>(uint64(in.Imm)&63)))
		case isa.SLTI:
			s.setXFast(in.Rd, b2u(int64(s.xFast(in.Rs1)) < in.Imm))
		case isa.MOVI:
			s.setXFast(in.Rd, uint64(in.Imm))

		case isa.LDR, isa.FLDR:
			addr := s.xFast(in.Rs1) + uint64(in.Imm)
			if addr%8 != 0 {
				sync()
				return executed, s.crash(fmt.Sprintf("misaligned load at %#x", addr))
			}
			v := mem.LoadWord64(addr)
			if in.Op == isa.LDR {
				s.setXFast(in.Rd, v)
			} else {
				s.F[in.Rd] = math.Float64frombits(v)
			}
		case isa.STR, isa.FSTR:
			addr := s.xFast(in.Rs1) + uint64(in.Imm)
			if addr%8 != 0 {
				sync()
				return executed, s.crash(fmt.Sprintf("misaligned store at %#x", addr))
			}
			var v uint64
			if in.Op == isa.STR {
				v = s.xFast(in.Rs2)
			} else {
				v = math.Float64bits(s.F[in.Rs2])
			}
			mem.StoreWord64(addr, v)

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
			s.setXFast(in.Rd, b2u(s.F[in.Rs1] < s.F[in.Rs2]))
		case isa.FCMPLE:
			s.setXFast(in.Rd, b2u(s.F[in.Rs1] <= s.F[in.Rs2]))
		case isa.FCMPEQ:
			s.setXFast(in.Rd, b2u(s.F[in.Rs1] == s.F[in.Rs2]))
		case isa.SCVTF:
			s.F[in.Rd] = float64(int64(s.xFast(in.Rs1)))
		case isa.FCVTZS:
			s.setXFast(in.Rd, uint64(fcvtzs(s.F[in.Rs1])))
		case isa.FMOVI:
			s.F[in.Rd] = isa.Float64FromBits(in.Imm)

		case isa.B:
			next = uint64(in.Imm)
		case isa.BL:
			s.setXFast(in.Rd, pc+isa.InstBytes)
			next = uint64(in.Imm)
		case isa.BR:
			next = s.xFast(in.Rs1)
		case isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.BLTU, isa.BGEU:
			if CondTaken(in.Op, s.xFast(in.Rs1), s.xFast(in.Rs2)) {
				next = uint64(in.Imm)
			}

		default:
			sync()
			return executed, s.crash(fmt.Sprintf("unimplemented op %v", in.Op))
		}

		pc = next
		executed++
		if sink != nil {
			buf[fill] = uint32(idx)
			fill++
			if fill == commitBatchRows {
				sink.CommitBatch(base+executed-commitBatchRows, buf)
				fill = 0
			}
		}
	}
	sync()
	return executed, nil
}

// xFast reads an integer register with the XZR-reads-zero rule. It is small
// enough to inline into every StepN case.
func (s *State) xFast(r uint8) uint64 {
	if r == isa.ZeroReg {
		return 0
	}
	return s.X[r]
}

// setXFast writes an integer register, discarding XZR writes.
func (s *State) setXFast(r uint8, v uint64) {
	if r != isa.ZeroReg {
		s.X[r] = v
	}
}
