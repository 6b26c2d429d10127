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

// twoPass is the reference assembler FuzzAssemble holds Assemble to: pass 1
// keeps every line as a statement, a data line with its values still as
// text, and only sizes data; pass 2 parses the values in line order among
// the text statements. It shares Assemble's text encoding (emitInst), so
// it checks the data path, the line walk, comments and labels.
type twoPass struct {
	assembler
	stmts []twoPassStmt
}

type twoPassStmt struct {
	statement
	addr    uint64 // assigned in pass 1
	isData  bool
	dataLen int
}

// assembleTwoPass is Assemble as the reference assembler does it.
func assembleTwoPass(src string) (*prog.Program, error) {
	a := &twoPass{assembler: assembler{
		labels:  make(map[string]uint64),
		textPos: prog.TextBase,
		dataPos: prog.DataBase,
	}}
	if err := a.pass1(src); err != nil {
		return nil, err
	}
	return a.pass2()
}

func twoPassStripComment(s string) string {
	if i := strings.Index(s, ";"); i >= 0 {
		s = s[:i]
	}
	if i := strings.Index(s, "//"); i >= 0 {
		s = s[:i]
	}
	return strings.TrimSpace(s)
}

func (a *twoPass) pass1(src string) error {
	sec := inText
	for lineNo, raw := range strings.Split(src, "\n") {
		line := twoPassStripComment(raw)
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
		st := twoPassStmt{statement: statement{line: n, mnem: mnem, args: args}}
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
			a.textPos += uint64(isa.InstBytes)
		}
		a.stmts = append(a.stmts, st)
	}
	return nil
}

func (a *twoPass) dataSize(st *twoPassStmt) (int, error) {
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

func (a *twoPass) pass2() (*prog.Program, error) {
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
		in, err := a.emitInst(&st.statement)
		if err != nil {
			return nil, err
		}
		insts = append(insts, in)
	}
	if len(insts) == 0 {
		return nil, fmt.Errorf("asm: no instructions")
	}
	return prog.New(insts, data, a.labels)
}

// emitData appends the bytes st initializes to data: a statement that
// starts where the last run ends extends it, and a .space or .align gap
// starts a new run.
func (a *twoPass) emitData(st *twoPassStmt, data []prog.DataSeg) ([]prog.DataSeg, error) {
	if st.mnem == ".space" {
		return data, nil
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
