// Package asm implements the assembler for the ISA in repro/internal/isa.
// It exists so workloads can be written as readable assembly text rather
// than hand-built instruction slices.
//
// Text takes two passes and data one. Pass 1 walks the source once: it
// assigns every label, writes each .word and .double value straight into
// the data runs at the data cursor (.space and .align only move the
// cursor), and keeps each text line as a statement. Pass 2 encodes the text
// statements, whose operands may name labels defined further down.
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
	line int
	mnem string
	args []string
}

type assembler struct {
	sec     section
	stmts   []statement // the text lines, in source order
	labels  map[string]uint64
	textPos uint64
	dataPos uint64
	data    []prog.DataSeg // the initialized data runs, in address order
	// dataErr is the first .word or .double value that does not parse.
	// Pass 1 goes on past it, and pass 2 reports it in line order among
	// the text statements' errors.
	dataErr *Error
}

// Assemble translates source text into a loaded Program. An error of pass
// 1 (a label, a directive or its size) is reported first; otherwise the
// first error in line order among text statements and data values.
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

// stripComment cuts s at its first ';' or "//" and trims the white space
// around what is left.
func stripComment(s string) string {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c == ';' || c == '/' && i+1 < len(s) && s[i+1] == '/' {
			s = s[:i]
			break
		}
	}
	return strings.TrimSpace(s)
}

// pass1 walks the source one line at a time.
func (a *assembler) pass1(src string) error {
	for n := 1; ; n++ {
		end := strings.IndexByte(src, '\n')
		if end < 0 {
			return a.line(n, src)
		}
		if err := a.line(n, src[:end]); err != nil {
			return err
		}
		src = src[end+1:]
	}
}

// line assigns the labels of source line n, then keeps a text line as a
// statement for pass 2 and lays out a data line at the data cursor.
func (a *assembler) line(n int, raw string) error {
	line := stripComment(raw)
	for {
		colon := strings.IndexByte(line, ':')
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
		if a.sec == inText {
			a.labels[label] = a.textPos
		} else {
			a.labels[label] = a.dataPos
		}
		line = strings.TrimSpace(line[colon+1:])
	}
	if line == "" {
		return nil
	}
	mnem, ops, _ := strings.Cut(line, " ")
	mnem = strings.ToLower(mnem)
	switch {
	case mnem == ".text":
		a.sec = inText
	case mnem == ".data":
		a.sec = inData
	case mnem == ".align":
		args := splitArgs(ops)
		if a.sec != inData || len(args) != 1 {
			return a.errf(n, ".align takes one argument and is data-only")
		}
		v, err := strconv.ParseUint(args[0], 0, 32)
		if err != nil || v == 0 || v&(v-1) != 0 {
			return a.errf(n, "bad alignment %q", args[0])
		}
		a.dataPos = (a.dataPos + v - 1) &^ (v - 1)
	case a.sec == inData:
		return a.dataLine(n, mnem, ops)
	case strings.HasPrefix(mnem, "."):
		return a.errf(n, "directive %s not allowed in text section", mnem)
	default:
		a.stmts = append(a.stmts, statement{line: n, mnem: mnem, args: splitArgs(ops)})
		a.textPos += isa.InstBytes
	}
	return nil
}

// dataLine lays out one data-section line. .space only moves the data
// cursor (the bytes it skips read as zero); .word and .double write their
// values at it.
func (a *assembler) dataLine(n int, mnem, ops string) error {
	switch mnem {
	case ".word", ".double":
		return a.values(n, mnem, ops)
	case ".space":
		args := splitArgs(ops)
		if len(args) != 1 {
			return a.errf(n, ".space needs a byte count")
		}
		v, err := strconv.ParseUint(args[0], 0, 32)
		if err != nil {
			return a.errf(n, "bad .space size %q", args[0])
		}
		a.dataPos += v
		return nil
	default:
		return a.errf(n, "unknown data directive %q", mnem)
	}
}

// values appends the eight-byte values of a .word or .double line to the
// data run that ends at the data cursor, or starts a run there after a
// .space or .align gap. It splits ops as splitArgs does, without building
// the slice: values are separated by commas outside brackets, trimmed, and
// an empty last value (a trailing comma) is dropped. A plain decimal word
// is converted in place; any other form goes to parseIntArg or
// strconv.ParseFloat. A value that does not parse still takes its eight
// bytes, and the first becomes a.dataErr.
func (a *assembler) values(n int, mnem, ops string) error {
	if k := len(a.data); k == 0 || a.data[k-1].Addr+uint64(len(a.data[k-1].Bytes)) != a.dataPos {
		a.data = append(a.data, prog.DataSeg{Addr: a.dataPos})
	}
	seg := &a.data[len(a.data)-1]
	from := len(seg.Bytes)
	word := mnem == ".word"
	for {
		if word {
			if v, end, ok := plainDecimal(ops); ok {
				seg.Bytes = binary.LittleEndian.AppendUint64(seg.Bytes, v)
				if end == len(ops) {
					break
				}
				ops = ops[end+1:]
				continue
			}
		}
		arg, rest, last := nextArg(ops)
		if last && arg == "" {
			break
		}
		seg.Bytes = binary.LittleEndian.AppendUint64(seg.Bytes, a.parseValue(n, mnem, arg))
		if last {
			break
		}
		ops = rest
	}
	if len(seg.Bytes) == from {
		return a.errf(n, "%s needs at least one value", mnem)
	}
	a.dataPos += uint64(len(seg.Bytes) - from)
	return nil
}

// plainDecimal reads a value of the form [-]digits, with spaces around it,
// from the front of s: at most 19 digits, so it fits a uint64, and no
// leading zero, which base 0 would read as octal. end is where the value
// stops, at a comma or at len(s). ok is false for any other form; a
// negative value comes back in two's complement, as parseIntArg gives it.
func plainDecimal(s string) (v uint64, end int, ok bool) {
	i := 0
	for i < len(s) && s[i] == ' ' {
		i++
	}
	neg := i < len(s) && s[i] == '-'
	if neg {
		i++
	}
	first := i
	for i < len(s) && i-first < 19 && '0' <= s[i] && s[i] <= '9' {
		v = v*10 + uint64(s[i]-'0')
		i++
	}
	if digits := i - first; digits == 0 || digits > 1 && s[first] == '0' {
		return 0, 0, false
	}
	for i < len(s) && s[i] == ' ' {
		i++
	}
	if i < len(s) && s[i] != ',' {
		return 0, 0, false
	}
	if neg {
		v = -v
	}
	return v, i, true
}

// nextArg splits the first argument off s at a comma outside brackets and
// trims it. last reports that no such comma remains.
func nextArg(s string) (arg, rest string, last bool) {
	depth := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '[':
			depth++
		case ']':
			depth--
		case ',':
			if depth == 0 {
				return strings.TrimSpace(s[:i]), s[i+1:], false
			}
		}
	}
	return strings.TrimSpace(s), "", true
}

// parseValue converts one .word or .double argument to its eight bytes'
// value. A bad one reads as zero and, if it is the first, becomes
// a.dataErr.
func (a *assembler) parseValue(n int, mnem, arg string) uint64 {
	if mnem == ".word" {
		if v, err := parseIntArg(arg); err == nil {
			return uint64(v)
		}
	} else if f, err := strconv.ParseFloat(arg, 64); err == nil {
		return math.Float64bits(f)
	}
	if a.dataErr == nil {
		a.dataErr = &Error{Line: n, Msg: fmt.Sprintf("bad %s value %q", mnem, arg)}
	}
	return 0
}

// pass2 encodes the text statements. Labels are all known by now, so a
// branch or la may name one defined further down.
func (a *assembler) pass2() (*prog.Program, error) {
	insts := make([]isa.Inst, 0, len(a.stmts))
	for i := range a.stmts {
		st := &a.stmts[i]
		if a.dataErr != nil && a.dataErr.Line < st.line {
			return nil, a.dataErr
		}
		in, err := a.emitInst(st)
		if err != nil {
			return nil, err
		}
		insts = append(insts, in)
	}
	if a.dataErr != nil {
		return nil, a.dataErr
	}
	if len(insts) == 0 {
		return nil, fmt.Errorf("asm: no instructions")
	}
	return prog.New(insts, a.data, a.labels)
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
