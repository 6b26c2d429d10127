package prog

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/isa"
)

func mkProg(t *testing.T, insts []isa.Inst, data []DataSeg) *Program {
	t.Helper()
	p, err := New(insts, data, map[string]uint64{"start": TextBase})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestFetchBounds(t *testing.T) {
	p := mkProg(t, []isa.Inst{{Op: isa.NOP}, {Op: isa.HALT}}, nil)
	if in, ok := p.Fetch(TextBase); !ok || in.Op != isa.NOP {
		t.Errorf("fetch entry: %v %v", in, ok)
	}
	if in, ok := p.Fetch(TextBase + 4); !ok || in.Op != isa.HALT {
		t.Errorf("fetch second: %v %v", in, ok)
	}
	if _, ok := p.Fetch(TextBase + 8); ok {
		t.Error("fetch past end succeeded")
	}
	if _, ok := p.Fetch(TextBase - 4); ok {
		t.Error("fetch before start succeeded")
	}
	if _, ok := p.Fetch(TextBase + 2); ok {
		t.Error("misaligned fetch succeeded")
	}
	if p.TextEnd() != TextBase+8 {
		t.Errorf("TextEnd = %#x", p.TextEnd())
	}
	if p.NumInsts() != 2 {
		t.Errorf("NumInsts = %d", p.NumInsts())
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil, nil); err == nil {
		t.Error("empty program accepted")
	}
	bad := []isa.Inst{{Op: isa.Op(250)}}
	if _, err := New(bad, nil, nil); err == nil {
		t.Error("invalid instruction accepted")
	}
	overlap := []DataSeg{{Addr: TextBase, Bytes: []byte{1}}}
	if _, err := New([]isa.Inst{{Op: isa.HALT}}, overlap, nil); err == nil {
		t.Error("data overlapping text accepted")
	}
}

// TestNewRejectsBadRuns pins the data-run contract: runs must ascend,
// must not overlap each other or text, and must not wrap, and each error
// names the lowest offending address.
func TestNewRejectsBadRuns(t *testing.T) {
	text := []isa.Inst{{Op: isa.NOP}, {Op: isa.HALT}} // [TextBase, TextBase+8)
	seg := func(addr uint64, n int) DataSeg { return DataSeg{Addr: addr, Bytes: make([]byte, n)} }
	cases := []struct {
		name string
		data []DataSeg
		want string
		addr uint64 // lowest offending address, named in the error
	}{
		{"out of order", []DataSeg{seg(DataBase+64, 8), seg(DataBase, 8)}, "below", DataBase},
		{"out of order past an empty run", []DataSeg{seg(DataBase+64, 8), seg(DataBase, 0), seg(DataBase+8, 8)}, "below", DataBase + 8},
		{"overlapping", []DataSeg{seg(DataBase, 16), seg(DataBase+8, 16)}, "overlaps the run", DataBase + 8},
		{"same start", []DataSeg{seg(DataBase, 8), seg(DataBase, 8)}, "overlaps the run", DataBase},
		{"straddles TextBase", []DataSeg{seg(TextBase-4, 8)}, "overlaps text", TextBase},
		{"starts inside text", []DataSeg{seg(TextBase+4, 8)}, "overlaps text", TextBase + 4},
		{"wraps", []DataSeg{seg(math.MaxUint64-3, 8)}, "wraps", math.MaxUint64 - 3},
	}
	for _, c := range cases {
		_, err := New(text, c.data, nil)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not say %q", c.name, err, c.want)
		}
		if addr := fmt.Sprintf("at %#x ", c.addr); !strings.Contains(err.Error(), addr) {
			t.Errorf("%s: error %q does not name %#x", c.name, err, c.addr)
		}
	}

	// A run ending on the last byte of the address space is legal, and one
	// after it can only be out of order.
	top := []DataSeg{seg(math.MaxUint64-7, 8)}
	if _, err := New(text, top, nil); err != nil {
		t.Errorf("run ending at the top of memory: %v", err)
	}
	if _, err := New(text, append(top, seg(math.MaxUint64, 1)), nil); err == nil {
		t.Error("run overlapping the top run accepted")
	}
	// Touching text on either side without overlapping it is legal.
	if _, err := New(text, []DataSeg{seg(TextBase-8, 8), seg(TextBase+8, 8)}, nil); err != nil {
		t.Errorf("runs abutting text: %v", err)
	}
}

// TestNewCoalescesRuns: empty runs vanish, adjacent runs merge, gaps keep
// runs apart, DataLen counts bytes, and the caller's buffers are copied.
func TestNewCoalescesRuns(t *testing.T) {
	a := []byte{1, 2, 3}
	in := []DataSeg{
		{Addr: DataBase, Bytes: a},
		{Addr: DataBase + 3},
		{Addr: DataBase + 3, Bytes: []byte{4, 5}},
		{Addr: DataBase + 5, Bytes: []byte{6}},
		{Addr: DataBase + 16, Bytes: []byte{7, 8}},
		{Addr: DataBase + 32, Bytes: nil},
	}
	p := mkProg(t, []isa.Inst{{Op: isa.HALT}}, in)
	got := p.DataSegments()
	want := []DataSeg{
		{Addr: DataBase, Bytes: []byte{1, 2, 3, 4, 5, 6}},
		{Addr: DataBase + 16, Bytes: []byte{7, 8}},
	}
	if len(got) != len(want) {
		t.Fatalf("runs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i].Addr != want[i].Addr || !bytes.Equal(got[i].Bytes, want[i].Bytes) {
			t.Errorf("run %d = %#x %v, want %#x %v", i, got[i].Addr, got[i].Bytes, want[i].Addr, want[i].Bytes)
		}
		if cap(got[i].Bytes) != len(got[i].Bytes) {
			t.Errorf("run %d has spare capacity %d; appends could clobber the next run", i, cap(got[i].Bytes))
		}
	}
	if p.DataLen() != 8 {
		t.Errorf("DataLen = %d, want 8", p.DataLen())
	}
	a[0] = 99
	if p.DataSegments()[0].Bytes[0] != 1 {
		t.Error("Program aliases the caller's data buffer")
	}
	if empty := mkProg(t, []isa.Inst{{Op: isa.HALT}}, []DataSeg{{Addr: DataBase}}); len(empty.DataSegments()) != 0 || empty.DataLen() != 0 {
		t.Errorf("all-empty runs: %v, DataLen %d", empty.DataSegments(), empty.DataLen())
	}
}

func TestSymbolsSortedAndData(t *testing.T) {
	p, err := New([]isa.Inst{{Op: isa.HALT}},
		[]DataSeg{{Addr: DataBase, Bytes: []byte{0xAB, 0xCD}}},
		map[string]uint64{"zeta": 1, "alpha": 2})
	if err != nil {
		t.Fatal(err)
	}
	syms := p.Symbols()
	if len(syms) != 2 || syms[0] != "alpha" || syms[1] != "zeta" {
		t.Errorf("symbols = %v", syms)
	}
	if a, ok := p.Symbol("zeta"); !ok || a != 1 {
		t.Errorf("Symbol(zeta) = %d %v", a, ok)
	}
	if _, ok := p.Symbol("missing"); ok {
		t.Error("missing symbol found")
	}
	if segs := p.DataSegments(); len(segs) != 1 || segs[0].Addr != DataBase || !bytes.Equal(segs[0].Bytes, []byte{0xAB, 0xCD}) {
		t.Errorf("data = %v", segs)
	}
	if p.DataLen() != 2 {
		t.Errorf("DataLen = %d", p.DataLen())
	}
}

func TestLayoutConstants(t *testing.T) {
	if !(TextBase < DataBase && DataBase < HeapBase && HeapBase < StackTop) {
		t.Error("memory layout regions out of order")
	}
}

// TestDigestComputedOnce: concurrent first calls agree, and later calls
// return the kept digest instead of hashing the program again. The test
// edits the program behind the digest's back to tell the two apart.
func TestDigestComputedOnce(t *testing.T) {
	p := mkProg(t, []isa.Inst{{Op: isa.MOVI, Rd: 1, Imm: 5}, {Op: isa.HALT}},
		[]DataSeg{{Addr: DataBase, Bytes: []byte{1, 2, 3}}})
	var wg sync.WaitGroup
	got := make([][32]byte, 4)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = p.Digest()
		}()
	}
	wg.Wait()
	for i := range got {
		if got[i] != got[0] {
			t.Fatalf("call %d returned %x, call 0 %x", i, got[i], got[0])
		}
	}
	p.insts[0].Imm = 6
	if p.hash() == got[0] {
		t.Fatal("editing an immediate did not change the hash")
	}
	if d := p.Digest(); d != got[0] {
		t.Fatalf("Digest hashed the program again: %x, first call %x", d, got[0])
	}
}
