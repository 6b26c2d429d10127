package asm

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/prog"
)

func TestBasicProgram(t *testing.T) {
	p, err := Assemble(`
		; a comment
		movi x1, #42      // another comment
		add  x2, x1, x1
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumInsts() != 3 {
		t.Fatalf("got %d instructions, want 3", p.NumInsts())
	}
	in, ok := p.Fetch(p.Entry())
	if !ok || in.Op != isa.MOVI || in.Rd != 1 || in.Imm != 42 {
		t.Errorf("first inst = %v", in)
	}
	in, _ = p.Fetch(p.Entry() + 4)
	if in.Op != isa.ADD || in.Rd != 2 || in.Rs1 != 1 || in.Rs2 != 1 {
		t.Errorf("second inst = %v", in)
	}
}

func TestLabelsForwardAndBackward(t *testing.T) {
	p, err := Assemble(`
	start:
		b    end
	mid:
		movi x1, #1
		b    start
	end:
		beq  x1, xzr, mid
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	end, ok := p.Symbol("end")
	if !ok {
		t.Fatal("missing label end")
	}
	in, _ := p.Fetch(p.Entry())
	if in.Op != isa.B || uint64(in.Imm) != end {
		t.Errorf("b end = %v, want target %#x", in, end)
	}
}

func TestDataSection(t *testing.T) {
	p, err := Assemble(`
		la  x1, tbl
		halt
	.data
	tbl:  .word 1, 2, 3
	f:    .double 0.5
	buf:  .space 32
	end_: .word 9
	`)
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := p.Symbol("tbl")
	if tbl != prog.DataBase {
		t.Errorf("tbl at %#x, want %#x", tbl, prog.DataBase)
	}
	f, _ := p.Symbol("f")
	if f != tbl+24 {
		t.Errorf("f at %#x, want tbl+24", f)
	}
	end, _ := p.Symbol("end_")
	if end != f+8+32 {
		t.Errorf("end_ at %#x, want f+40", end)
	}
	if p.DataLen() != 5*8 {
		t.Errorf("initialized data bytes = %d, want 40", p.DataLen())
	}
}

func TestAlignDirective(t *testing.T) {
	p, err := Assemble(`
		halt
	.data
	a: .word 1
	.align 64
	b: .word 2
	`)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := p.Symbol("b")
	if b%64 != 0 {
		t.Errorf("b at %#x, not 64-aligned", b)
	}
}

// TestDataRuns: back-to-back .word/.double statements, across text/data
// switches and a .space 0, form one run; .space and .align gaps split runs.
func TestDataRuns(t *testing.T) {
	p, err := Assemble(`
	.data
	a:    .word 1, 2
	      .double 0.5
	      .space 0
	.text
		halt
	.data
	      .word 3
	gap:  .space 16
	b:    .word 4
	.align 64
	c:    .double 1.5
	`)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := p.Symbol("b")
	c, _ := p.Symbol("c")
	le := func(vs ...uint64) []byte {
		var out []byte
		for _, v := range vs {
			out = binary.LittleEndian.AppendUint64(out, v)
		}
		return out
	}
	want := []prog.DataSeg{
		{Addr: prog.DataBase, Bytes: le(1, 2, math.Float64bits(0.5), 3)},
		{Addr: b, Bytes: le(4)},
		{Addr: c, Bytes: le(math.Float64bits(1.5))},
	}
	got := p.DataSegments()
	if len(got) != len(want) {
		t.Fatalf("%d runs, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i].Addr != want[i].Addr || !bytes.Equal(got[i].Bytes, want[i].Bytes) {
			t.Errorf("run %d = %#x % x, want %#x % x", i, got[i].Addr, got[i].Bytes, want[i].Addr, want[i].Bytes)
		}
	}
	if p.DataLen() != 6*8 {
		t.Errorf("DataLen = %d, want 48", p.DataLen())
	}
}

func TestPseudoInstructions(t *testing.T) {
	p, err := Assemble(`
		mov  x1, #7
		mov  x2, x1
		subi x3, x2, #2
		fmovi f0, #1.0
		fmov f1, f0
		la   x4, d
		bl   fn
		halt
	fn:	ret
	.data
	d: .word 0
	`)
	if err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		idx int
		op  isa.Op
	}{
		{0, isa.MOVI}, {1, isa.ORR}, {2, isa.ADDI}, {3, isa.FMOVI},
		{4, isa.FMIN}, {5, isa.MOVI}, {6, isa.BL}, {8, isa.BR},
	}
	for _, c := range checks {
		in, ok := p.Fetch(p.Entry() + uint64(c.idx*4))
		if !ok || in.Op != c.op {
			t.Errorf("inst %d = %v, want op %v", c.idx, in, c.op)
		}
	}
	if in, _ := p.Fetch(p.Entry() + 8); in.Imm != -2 {
		t.Errorf("subi expanded with imm %d, want -2", in.Imm)
	}
}

func TestRegisterAliases(t *testing.T) {
	p, err := Assemble(`
		subi sp, sp, #8
		str  lr, [sp, #0]
		add  x1, xzr, xzr
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	in, _ := p.Fetch(p.Entry())
	if in.Rd != 29 || in.Rs1 != 29 {
		t.Errorf("sp alias: %v", in)
	}
	in, _ = p.Fetch(p.Entry() + 4)
	if in.Rs2 != isa.LinkReg {
		t.Errorf("lr alias: %v", in)
	}
}

func TestHexAndNegativeImmediates(t *testing.T) {
	p, err := Assemble(`
		movi x1, #0xFF
		movi x2, #-0x10
		addi x3, x1, #-1
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	in, _ := p.Fetch(p.Entry())
	if in.Imm != 0xFF {
		t.Errorf("hex imm = %d", in.Imm)
	}
	in, _ = p.Fetch(p.Entry() + 4)
	if in.Imm != -16 {
		t.Errorf("negative hex imm = %d", in.Imm)
	}
}

func TestErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		frag string
	}{
		{"unknown mnemonic", "frobnicate x1, x2\nhalt", "unknown mnemonic"},
		{"bad register", "add x1, x2, x99\nhalt", "bad operands"},
		{"x31 rejected", "add x31, x1, x2\nhalt", "bad operands"},
		{"duplicate label", "a: nop\na: nop\nhalt", "duplicate label"},
		{"undefined target", "b nowhere\nhalt", "unknown branch target"},
		{"wrong operand count", "add x1, x2\nhalt", "needs rd, rs1, rs2"},
		{"data in text", ".word 5\nhalt", "not allowed in text"},
		{"bad directive", "halt\n.data\n.blob 4", "unknown data directive"},
		{"empty", "; nothing", "no instructions"},
		{"bad label char", "l@bel: nop\nhalt", "invalid label"},
		{"store needs mem operand", "str x1, x2\nhalt", "bad operands"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Assemble(c.src)
			if err == nil {
				t.Fatalf("expected error containing %q", c.frag)
			}
			if !strings.Contains(err.Error(), c.frag) {
				t.Errorf("error %q does not contain %q", err, c.frag)
			}
		})
	}
}

func TestErrorsCarryLineNumbers(t *testing.T) {
	_, err := Assemble("nop\nnop\nbogus x1\nhalt")
	aerr, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type %T, want *Error", err)
	}
	if aerr.Line != 3 {
		t.Errorf("error line = %d, want 3", aerr.Line)
	}
}

func TestMemOperandForms(t *testing.T) {
	p, err := Assemble(`
		ldr x1, [x2]
		ldr x1, [x2, #8]
		ldr x1, [x2, #-8]
		fstr f3, [x4, #0x10]
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	wants := []int64{0, 8, -8, 16}
	for i, w := range wants {
		in, _ := p.Fetch(p.Entry() + uint64(i*4))
		if in.Imm != w {
			t.Errorf("inst %d imm = %d, want %d", i, in.Imm, w)
		}
	}
}

func TestMustAssemblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustAssemble did not panic on bad source")
		}
	}()
	MustAssemble("bogus")
}

func TestLabelOnSameLineAsInst(t *testing.T) {
	p, err := Assemble(`
	loop: addi x1, x1, #1
	      bne x1, x2, loop
	      halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	loop, _ := p.Symbol("loop")
	if loop != p.Entry() {
		t.Errorf("loop = %#x, want entry %#x", loop, p.Entry())
	}
}

// TestAssemblerNeverPanics feeds random garbage and mutated valid programs
// to the assembler: it must return errors, never panic.
func TestAssemblerNeverPanics(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	corpus := []string{
		"add x1, x2, x3\nhalt",
		"loop: subi x1, x1, #1\nbne x1, xzr, loop\nhalt",
		".data\nv: .word 1",
		"ldr x1, [x2, #8]\nhalt",
	}
	alphabet := "abcdefghijklmnopqrstuvwxyz0123456789 ,#[]:.x-\n\t"
	for i := 0; i < 2000; i++ {
		var src string
		if i%2 == 0 {
			// Pure random soup.
			n := r.Intn(200)
			b := make([]byte, n)
			for j := range b {
				b[j] = alphabet[r.Intn(len(alphabet))]
			}
			src = string(b)
		} else {
			// Mutate a valid program.
			b := []byte(corpus[r.Intn(len(corpus))])
			for m := 0; m < 1+r.Intn(5); m++ {
				if len(b) == 0 {
					break
				}
				b[r.Intn(len(b))] = alphabet[r.Intn(len(alphabet))]
			}
			src = string(b)
		}
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("assembler panicked on input %q: %v", src, p)
				}
			}()
			_, _ = Assemble(src)
		}()
	}
}
