// Package asm implements a two-pass assembler for the ISA in
// repro/internal/isa. It exists so workloads can be written as readable
// assembly text rather than hand-built instruction slices.
//
// Syntax overview:
//
//	; comment            // comment
//	label:  add x1, x2, x3
//	        addi x4, x4, #-8
//	        movi x5, #0x10
//	        ldr  x6, [x5, #16]
//	        beq  x1, xzr, done
//	        b    loop
//	.data
//	buf:    .space 256
//	val:    .word 42
//	pi:     .double 3.141592653589793
//
// Pseudo-instructions: mov (register or immediate), la (load label address),
// ret (br x30), fmov (fp register move), subi (addi with negated immediate).
// Register aliases: sp = x29, lr = x30, xzr = x31.
package asm

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/isa"
	"repro/internal/prog"
)

// Error describes an assembly failure at a specific source line.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg) }

type section int

const (
	inText section = iota
	inData
)

type statement struct {
	line    int
	mnem    string
	args    []string
	addr    uint64 // assigned in pass 1
	isData  bool
	dataLen int
}

type assembler struct {
	stmts   []statement
	labels  map[string]uint64
	textPos uint64
	dataPos uint64
}

// Assemble translates source text into a loaded Program.
func Assemble(src string) (*prog.Program, error) {
	a := &assembler{
		labels:  make(map[string]uint64),
		textPos: prog.TextBase,
		dataPos: prog.DataBase,
	}
	if err := a.pass1(src); err != nil {
		return nil, err
	}
	return a.pass2()
}

// MustAssemble is Assemble for known-good sources (workload generators);
// it panics on error.
func MustAssemble(src string) *prog.Program {
	p, err := Assemble(src)
	if err != nil {
		panic(err)
	}
	return p
}

func (a *assembler) errf(line int, format string, args ...any) error {
	return &Error{Line: line, Msg: fmt.Sprintf(format, args...)}
}

func stripComment(s string) string {
	if i := strings.Index(s, ";"); i >= 0 {
		s = s[:i]
	}
	if i := strings.Index(s, "//"); i >= 0 {
		s = s[:i]
	}
	return strings.TrimSpace(s)
}

func (a *assembler) pass1(src string) error {
	sec := inText
	for lineNo, raw := range strings.Split(src, "\n") {
		line := stripComment(raw)
		n := lineNo + 1
		for {
			colon := strings.Index(line, ":")
			if colon < 0 {
				break
			}
			label := strings.TrimSpace(line[:colon])
			if !validLabel(label) {
				return a.errf(n, "invalid label %q", label)
			}
			if _, dup := a.labels[label]; dup {
				return a.errf(n, "duplicate label %q", label)
			}
			if sec == inText {
				a.labels[label] = a.textPos
			} else {
				a.labels[label] = a.dataPos
			}
			line = strings.TrimSpace(line[colon+1:])
		}
		if line == "" {
			continue
		}
		fields := strings.SplitN(line, " ", 2)
		mnem := strings.ToLower(fields[0])
		var args []string
		if len(fields) == 2 {
			args = splitArgs(fields[1])
		}
		switch mnem {
		case ".text":
			sec = inText
			continue
		case ".data":
			sec = inData
			continue
		case ".align":
			if sec != inData || len(args) != 1 {
				return a.errf(n, ".align takes one argument and is data-only")
			}
			v, err := strconv.ParseUint(args[0], 0, 32)
			if err != nil || v == 0 || v&(v-1) != 0 {
				return a.errf(n, "bad alignment %q", args[0])
			}
			a.dataPos = (a.dataPos + v - 1) &^ (v - 1)
			continue
		}
		st := statement{line: n, mnem: mnem, args: args}
		if sec == inData {
			st.isData = true
			ln, err := a.dataSize(&st)
			if err != nil {
				return err
			}
			st.dataLen = ln
			st.addr = a.dataPos
			a.dataPos += uint64(ln)
		} else {
			if strings.HasPrefix(mnem, ".") {
				return a.errf(n, "directive %s not allowed in text section", mnem)
			}
			st.addr = a.textPos
			a.textPos += uint64(isa.InstBytes) * uint64(pseudoLen(mnem))
		}
		a.stmts = append(a.stmts, st)
	}
	return nil
}

func (a *assembler) dataSize(st *statement) (int, error) {
	switch st.mnem {
	case ".word", ".double":
		if len(st.args) == 0 {
			return 0, a.errf(st.line, "%s needs at least one value", st.mnem)
		}
		return 8 * len(st.args), nil
	case ".space":
		if len(st.args) != 1 {
			return 0, a.errf(st.line, ".space needs a byte count")
		}
		v, err := strconv.ParseUint(st.args[0], 0, 32)
		if err != nil {
			return 0, a.errf(st.line, "bad .space size %q", st.args[0])
		}
		return int(v), nil
	default:
		return 0, a.errf(st.line, "unknown data directive %q", st.mnem)
	}
}

func (a *assembler) pass2() (*prog.Program, error) {
	var insts []isa.Inst
	var data []prog.DataSeg
	for i := range a.stmts {
		st := &a.stmts[i]
		if st.isData {
			var err error
			if data, err = a.emitData(st, data); err != nil {
				return nil, err
			}
			continue
		}
		emitted, err := a.emitInst(st)
		if err != nil {
			return nil, err
		}
		insts = append(insts, emitted...)
	}
	if len(insts) == 0 {
		return nil, fmt.Errorf("asm: no instructions")
	}
	return prog.New(insts, data, a.labels)
}

// emitData appends the bytes st initializes to data. Pass 1 only ever raises
// dataPos, so statements arrive in ascending address order: one that starts
// where the last run ends extends it, and a .space or .align gap starts a
// new run.
func (a *assembler) emitData(st *statement, data []prog.DataSeg) ([]prog.DataSeg, error) {
	if st.mnem == ".space" {
		return data, nil // Uninitialized; memory reads as zero.
	}
	if n := len(data); n == 0 || data[n-1].Addr+uint64(len(data[n-1].Bytes)) != st.addr {
		data = append(data, prog.DataSeg{Addr: st.addr})
	}
	seg := &data[len(data)-1]
	for _, arg := range st.args {
		var v uint64
		if st.mnem == ".word" {
			iv, err := parseIntArg(arg)
			if err != nil {
				return nil, a.errf(st.line, "bad .word value %q", arg)
			}
			v = uint64(iv)
		} else {
			f, err := strconv.ParseFloat(arg, 64)
			if err != nil {
				return nil, a.errf(st.line, "bad .double value %q", arg)
			}
			v = math.Float64bits(f)
		}
		seg.Bytes = binary.LittleEndian.AppendUint64(seg.Bytes, v)
	}
	return data, nil
}

func validLabel(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r == '_' || r == '.':
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// splitArgs splits an operand list on commas, keeping bracketed memory
// operands like "[x2, #8]" intact.
func splitArgs(s string) []string {
	var args []string
	depth := 0
	start := 0
	for i, r := range s {
		switch r {
		case '[':
			depth++
		case ']':
			depth--
		case ',':
			if depth == 0 {
				args = append(args, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	if tail := strings.TrimSpace(s[start:]); tail != "" {
		args = append(args, tail)
	}
	return args
}

func parseIntArg(s string) (int64, error) {
	s = strings.TrimPrefix(s, "#")
	neg := strings.HasPrefix(s, "-")
	t := strings.TrimPrefix(s, "-")
	v, err := strconv.ParseUint(t, 0, 64)
	if err != nil {
		// Allow full-range signed values too.
		sv, serr := strconv.ParseInt(s, 0, 64)
		if serr != nil {
			return 0, err
		}
		return sv, nil
	}
	if neg {
		return -int64(v), nil
	}
	return int64(v), nil
}
