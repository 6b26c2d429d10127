package asm

import (
	"strconv"
	"strings"

	"repro/internal/isa"
)

// mnemonics maps assembler mnemonics to opcodes (pseudo-instructions are
// handled separately in emitInst).
var mnemonics = func() map[string]isa.Op {
	m := make(map[string]isa.Op, isa.NumOps)
	for op := isa.Op(0); int(op) < isa.NumOps; op++ {
		m[op.String()] = op
	}
	return m
}()

func parseReg(s string) (isa.RegClass, uint8, bool) {
	switch s {
	case "xzr":
		return isa.IntReg, isa.ZeroReg, true
	case "sp":
		return isa.IntReg, 29, true
	case "lr":
		return isa.IntReg, isa.LinkReg, true
	}
	if len(s) < 2 {
		return isa.NoReg, 0, false
	}
	var class isa.RegClass
	switch s[0] {
	case 'x':
		class = isa.IntReg
	case 'f':
		class = isa.FPReg
	default:
		return isa.NoReg, 0, false
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n > 31 {
		return isa.NoReg, 0, false
	}
	if class == isa.IntReg && n == 31 {
		// x31 must be written as xzr to make zero-register reads explicit.
		return isa.NoReg, 0, false
	}
	return class, uint8(n), true
}

// parseMem parses "[xN, #imm]" or "[xN]".
func parseMem(s string) (base uint8, off int64, ok bool) {
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return 0, 0, false
	}
	inner := strings.TrimSpace(s[1 : len(s)-1])
	parts := splitArgs(inner)
	if len(parts) == 0 || len(parts) > 2 {
		return 0, 0, false
	}
	c, r, rok := parseReg(parts[0])
	if !rok || c != isa.IntReg {
		return 0, 0, false
	}
	if len(parts) == 2 {
		v, err := parseIntArg(parts[1])
		if err != nil {
			return 0, 0, false
		}
		off = v
	}
	return r, off, true
}

func (a *assembler) target(st *statement, arg string) (int64, error) {
	if addr, ok := a.labels[arg]; ok {
		return int64(addr), nil
	}
	if v, err := parseIntArg(arg); err == nil {
		return v, nil
	}
	return 0, a.errf(st.line, "unknown branch target %q", arg)
}

// emitInst encodes one text statement. Every pseudo-instruction expands to
// exactly one machine instruction.
func (a *assembler) emitInst(st *statement) (isa.Inst, error) {
	// Pseudo-instructions first.
	switch st.mnem {
	case "mov":
		if len(st.args) != 2 {
			return isa.Inst{}, a.errf(st.line, "mov needs 2 operands")
		}
		dc, dr, ok := a.reg(st, 0, isa.IntReg)
		if !ok {
			return isa.Inst{}, a.errf(st.line, "mov: bad destination %q", st.args[0])
		}
		_ = dc
		if strings.HasPrefix(st.args[1], "#") {
			v, err := parseIntArg(st.args[1])
			if err != nil {
				return isa.Inst{}, a.errf(st.line, "mov: bad immediate %q", st.args[1])
			}
			return isa.Inst{Op: isa.MOVI, Rd: dr, Imm: v}, nil
		}
		sc, sr, ok := parseReg(st.args[1])
		if !ok || sc != isa.IntReg {
			return isa.Inst{}, a.errf(st.line, "mov: bad source %q", st.args[1])
		}
		return isa.Inst{Op: isa.ORR, Rd: dr, Rs1: sr, Rs2: isa.ZeroReg}, nil
	case "fmov":
		if len(st.args) != 2 {
			return isa.Inst{}, a.errf(st.line, "fmov needs 2 operands")
		}
		_, dr, dok := a.reg(st, 0, isa.FPReg)
		_, sr, sok := a.reg(st, 1, isa.FPReg)
		if !dok || !sok {
			return isa.Inst{}, a.errf(st.line, "fmov: bad operands")
		}
		return isa.Inst{Op: isa.FMIN, Rd: dr, Rs1: sr, Rs2: sr}, nil
	case "la":
		if len(st.args) != 2 {
			return isa.Inst{}, a.errf(st.line, "la needs 2 operands")
		}
		_, dr, ok := a.reg(st, 0, isa.IntReg)
		if !ok {
			return isa.Inst{}, a.errf(st.line, "la: bad destination %q", st.args[0])
		}
		addr, ok := a.labels[st.args[1]]
		if !ok {
			return isa.Inst{}, a.errf(st.line, "la: unknown label %q", st.args[1])
		}
		return isa.Inst{Op: isa.MOVI, Rd: dr, Imm: int64(addr)}, nil
	case "ret":
		if len(st.args) != 0 {
			return isa.Inst{}, a.errf(st.line, "ret takes no operands")
		}
		return isa.Inst{Op: isa.BR, Rs1: isa.LinkReg}, nil
	case "subi":
		if len(st.args) != 3 {
			return isa.Inst{}, a.errf(st.line, "subi needs 3 operands")
		}
		_, dr, dok := a.reg(st, 0, isa.IntReg)
		_, sr, sok := a.reg(st, 1, isa.IntReg)
		v, err := parseIntArg(st.args[2])
		if !dok || !sok || err != nil {
			return isa.Inst{}, a.errf(st.line, "subi: bad operands")
		}
		return isa.Inst{Op: isa.ADDI, Rd: dr, Rs1: sr, Imm: -v}, nil
	}

	op, ok := mnemonics[st.mnem]
	if !ok {
		return isa.Inst{}, a.errf(st.line, "unknown mnemonic %q", st.mnem)
	}
	d := op.Describe()
	in := isa.Inst{Op: op}

	switch {
	case op == isa.NOP || op == isa.HALT:
		if len(st.args) != 0 {
			return isa.Inst{}, a.errf(st.line, "%s takes no operands", op)
		}

	case op == isa.MOVI:
		if len(st.args) != 2 {
			return isa.Inst{}, a.errf(st.line, "movi needs 2 operands")
		}
		_, r, rok := a.reg(st, 0, isa.IntReg)
		v, err := parseIntArg(st.args[1])
		if !rok || err != nil {
			return isa.Inst{}, a.errf(st.line, "movi: bad operands")
		}
		in.Rd, in.Imm = r, v

	case op == isa.FMOVI:
		if len(st.args) != 2 {
			return isa.Inst{}, a.errf(st.line, "fmovi needs 2 operands")
		}
		_, r, rok := a.reg(st, 0, isa.FPReg)
		f, err := strconv.ParseFloat(strings.TrimPrefix(st.args[1], "#"), 64)
		if !rok || err != nil {
			return isa.Inst{}, a.errf(st.line, "fmovi: bad operands")
		}
		in.Rd, in.Imm = r, isa.BitsFromFloat64(f)

	case d.Load:
		if len(st.args) != 2 {
			return isa.Inst{}, a.errf(st.line, "%s needs 2 operands", op)
		}
		_, r, rok := a.reg(st, 0, d.DestClass)
		base, off, mok := parseMem(st.args[1])
		if !rok || !mok {
			return isa.Inst{}, a.errf(st.line, "%s: bad operands", op)
		}
		in.Rd, in.Rs1, in.Imm = r, base, off

	case d.Store:
		if len(st.args) != 2 {
			return isa.Inst{}, a.errf(st.line, "%s needs 2 operands", op)
		}
		_, r, rok := a.reg(st, 0, d.Src2Class)
		base, off, mok := parseMem(st.args[1])
		if !rok || !mok {
			return isa.Inst{}, a.errf(st.line, "%s: bad operands", op)
		}
		in.Rs2, in.Rs1, in.Imm = r, base, off

	case op == isa.B || op == isa.BL:
		if len(st.args) != 1 {
			return isa.Inst{}, a.errf(st.line, "%s needs a target", op)
		}
		t, err := a.target(st, st.args[0])
		if err != nil {
			return isa.Inst{}, err
		}
		in.Imm = t
		if op == isa.BL {
			in.Rd = isa.LinkReg
		}

	case op == isa.BR:
		if len(st.args) != 1 {
			return isa.Inst{}, a.errf(st.line, "br needs a register")
		}
		_, r, rok := a.reg(st, 0, isa.IntReg)
		if !rok {
			return isa.Inst{}, a.errf(st.line, "br: bad register %q", st.args[0])
		}
		in.Rs1 = r

	case d.Cond:
		if len(st.args) != 3 {
			return isa.Inst{}, a.errf(st.line, "%s needs rs1, rs2, target", op)
		}
		_, r1, ok1 := a.reg(st, 0, isa.IntReg)
		_, r2, ok2 := a.reg(st, 1, isa.IntReg)
		t, err := a.target(st, st.args[2])
		if !ok1 || !ok2 || err != nil {
			return isa.Inst{}, a.errf(st.line, "%s: bad operands", op)
		}
		in.Rs1, in.Rs2, in.Imm = r1, r2, t

	case d.HasImm && d.Src2Class == isa.NoReg && d.DestClass != isa.NoReg:
		// Register-immediate ALU.
		if len(st.args) != 3 {
			return isa.Inst{}, a.errf(st.line, "%s needs rd, rs1, #imm", op)
		}
		_, rd, okd := a.reg(st, 0, d.DestClass)
		_, rs, oks := a.reg(st, 1, d.Src1Class)
		v, err := parseIntArg(st.args[2])
		if !okd || !oks || err != nil {
			return isa.Inst{}, a.errf(st.line, "%s: bad operands", op)
		}
		in.Rd, in.Rs1, in.Imm = rd, rs, v

	case d.Src2Class == isa.NoReg && d.Src1Class != isa.NoReg:
		// Unary register ops (fneg, fabs, fsqrt, scvtf, fcvtzs).
		if len(st.args) != 2 {
			return isa.Inst{}, a.errf(st.line, "%s needs rd, rs1", op)
		}
		_, rd, okd := a.reg(st, 0, d.DestClass)
		_, rs, oks := a.reg(st, 1, d.Src1Class)
		if !okd || !oks {
			return isa.Inst{}, a.errf(st.line, "%s: bad operands", op)
		}
		in.Rd, in.Rs1 = rd, rs

	default:
		// Three-register ALU forms.
		if len(st.args) != 3 {
			return isa.Inst{}, a.errf(st.line, "%s needs rd, rs1, rs2", op)
		}
		_, rd, okd := a.reg(st, 0, d.DestClass)
		_, r1, ok1 := a.reg(st, 1, d.Src1Class)
		_, r2, ok2 := a.reg(st, 2, d.Src2Class)
		if !okd || !ok1 || !ok2 {
			return isa.Inst{}, a.errf(st.line, "%s: bad operands", op)
		}
		in.Rd, in.Rs1, in.Rs2 = rd, r1, r2
	}

	if err := in.Validate(); err != nil {
		return isa.Inst{}, a.errf(st.line, "%v", err)
	}
	return in, nil
}

// reg parses argument i of st as a register of the wanted class.
func (a *assembler) reg(st *statement, i int, want isa.RegClass) (isa.RegClass, uint8, bool) {
	if i >= len(st.args) {
		return isa.NoReg, 0, false
	}
	c, r, ok := parseReg(st.args[i])
	if !ok || (want != isa.NoReg && c != want) {
		return isa.NoReg, 0, false
	}
	return c, r, true
}
