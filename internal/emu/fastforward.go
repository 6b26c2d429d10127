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
	// Integer registers are read and written raw: an XZR write goes
	// through and is undone at the end of the instruction, as in Step, so
	// X[31] reads zero at the start of every instruction, the first one
	// included.
	s.X[isa.ZeroReg] = 0
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
				sync()
				return executed, s.crash(fmt.Sprintf("misaligned load at %#x", addr))
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
				sync()
				return executed, s.crash(fmt.Sprintf("misaligned store at %#x", addr))
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

		case isa.B:
			next = uint64(in.Imm)
		case isa.BL:
			s.X[in.Rd] = pc + isa.InstBytes
			next = uint64(in.Imm)
		case isa.BR:
			next = s.X[in.Rs1]
		case isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.BLTU, isa.BGEU:
			if CondTaken(in.Op, s.X[in.Rs1], s.X[in.Rs2]) {
				next = uint64(in.Imm)
			}

		default:
			sync()
			return executed, s.crash(fmt.Sprintf("unimplemented op %v", in.Op))
		}

		s.X[isa.ZeroReg] = 0
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
