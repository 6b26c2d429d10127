// Package prog represents a loaded program: an instruction image, an initial
// data image, an entry point, and a symbol table. It is the interface between
// the assembler, the functional emulator, and the timing simulator.
//
//repro:deterministic
package prog

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"sync"

	"repro/internal/isa"
)

// Default memory layout. Text and data live in disjoint regions of a flat
// 64-bit address space.
const (
	// TextBase is the address of the first instruction.
	TextBase uint64 = 0x0000_1000
	// DataBase is the address where the assembled data section begins.
	DataBase uint64 = 0x0010_0000
	// HeapBase is scratch space above the data section that workloads may
	// use freely (the assembler never places anything here).
	HeapBase uint64 = 0x0100_0000
	// StackTop is the initial stack pointer handed to programs in x29.
	StackTop uint64 = 0x0800_0000
)

// DataSeg is one run of initialized data: Bytes laid out contiguously from
// address Addr.
type DataSeg struct {
	Addr  uint64
	Bytes []byte
}

// Program is an immutable loaded program.
type Program struct {
	insts   []isa.Inst
	uops    *UOpTable
	data    []DataSeg
	dataLen int
	symbols map[string]uint64
	entry   uint64

	digestOnce sync.Once
	digest     [sha256.Size]byte
}

// New builds a Program from the given instruction sequence (laid out
// contiguously from TextBase), initial data runs, and symbol table. The
// entry point is TextBase.
//
// The runs must be in ascending address order and must not overlap each
// other, touch text, or wrap the address space; each error names the lowest
// offending address. Empty runs are skipped and adjacent runs coalesced.
// New copies the bytes, so callers may reuse their buffers.
func New(insts []isa.Inst, data []DataSeg, symbols map[string]uint64) (*Program, error) {
	if len(insts) == 0 {
		return nil, fmt.Errorf("prog: empty program")
	}
	for i, in := range insts {
		if err := in.Validate(); err != nil {
			return nil, fmt.Errorf("prog: instruction %d: %w", i, err)
		}
	}
	textEnd := TextBase + uint64(len(insts)*isa.InstBytes)
	// Validate before copying anything. prevAddr/prevLast bound the last
	// non-empty run (inclusive, so a run ending at the top of the address
	// space cannot wrap the comparison).
	total := 0
	var prevAddr, prevLast uint64
	for _, d := range data {
		if len(d.Bytes) == 0 {
			continue
		}
		last := d.Addr + uint64(len(d.Bytes)) - 1
		switch {
		case total > 0 && d.Addr < prevAddr:
			return nil, fmt.Errorf("prog: data run at %#x is below the previous run at %#x", d.Addr, prevAddr)
		case total > 0 && d.Addr <= prevLast:
			return nil, fmt.Errorf("prog: data run at %#x overlaps the run at %#x", d.Addr, prevAddr)
		case last < d.Addr:
			return nil, fmt.Errorf("prog: data run at %#x (%d bytes) wraps the address space", d.Addr, len(d.Bytes))
		case d.Addr < textEnd && last >= TextBase:
			return nil, fmt.Errorf("prog: data byte at %#x overlaps text", max(d.Addr, TextBase))
		}
		total += len(d.Bytes)
		prevAddr, prevLast = d.Addr, last
	}
	// One backing array holds every run. Each DataSeg is a capacity-capped
	// window onto it, so an append through one run cannot overwrite the
	// next.
	buf := make([]byte, total)
	var segs []DataSeg
	off := 0
	for _, d := range data {
		if len(d.Bytes) == 0 {
			continue
		}
		end := off + copy(buf[off:], d.Bytes)
		if k := len(segs); k > 0 && d.Addr == segs[k-1].Addr+uint64(len(segs[k-1].Bytes)) {
			segs[k-1].Bytes = buf[off-len(segs[k-1].Bytes) : end : end]
		} else {
			segs = append(segs, DataSeg{Addr: d.Addr, Bytes: buf[off:end:end]})
		}
		off = end
	}
	s := make(map[string]uint64, len(symbols))
	for k, v := range symbols {
		s[k] = v
	}
	return &Program{insts: insts, uops: buildUOps(insts), data: segs, dataLen: total, symbols: s, entry: TextBase}, nil
}

// Entry returns the entry-point PC.
func (p *Program) Entry() uint64 { return p.entry }

// NumInsts returns the static instruction count.
func (p *Program) NumInsts() int { return len(p.insts) }

// TextEnd returns the first address past the text section.
func (p *Program) TextEnd() uint64 { return TextBase + uint64(len(p.insts)*isa.InstBytes) }

// Fetch returns the instruction at pc. ok is false when pc lies outside the
// text section or is misaligned — the simulator treats such fetches as
// wrong-path bubbles, and the emulator treats them as a crash.
//
// Instructions were validated once at New, so fetch is pure index
// arithmetic: pc < TextBase wraps the subtraction around to a huge index
// that the single length comparison rejects, covering both ends of the text
// section with one branch.
func (p *Program) Fetch(pc uint64) (isa.Inst, bool) {
	idx := (pc - TextBase) / isa.InstBytes
	if idx >= uint64(len(p.insts)) || pc&(isa.InstBytes-1) != 0 {
		return isa.Inst{}, false
	}
	return p.insts[idx], true
}

// Insts exposes the pre-decoded text image for fast-forward interpreters
// that index it directly instead of calling Fetch per instruction. Callers
// must treat the slice as read-only.
func (p *Program) Insts() []isa.Inst { return p.insts }

// Symbol resolves a label to its address.
func (p *Program) Symbol(name string) (uint64, bool) {
	a, ok := p.symbols[name]
	return a, ok
}

// Symbols returns the symbol names in deterministic (sorted) order.
func (p *Program) Symbols() []string {
	names := make([]string, 0, len(p.symbols))
	for n := range p.symbols {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// DataSegments exposes the initial data image as address-ordered,
// non-overlapping, non-adjacent runs, for memory boot and content digests
// that copy or hash whole runs instead of single bytes. Callers must treat
// the slice and its bytes as read-only.
func (p *Program) DataSegments() []DataSeg { return p.data }

// DataLen returns the number of initialized data bytes.
func (p *Program) DataLen() int { return p.dataLen }
