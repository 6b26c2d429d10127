// Package regfile models the paper's check-pointed physical register file
// (§IV-C): a multi-bank file whose banks embed 0, 1, 2 or 3 shadow bit-cells
// per register. The most recent version of a shared register lives in the
// normal (ported) cells; older versions live in shadow cells, written in
// parallel with the main cell on a versioned write and recovered by an
// explicit "recover" command on branch mispredictions, interrupts and
// exceptions.
//
// The simulator keeps actual 64-bit values in the file so that the pipeline
// can be validated end-to-end against the architectural emulator.
//
//repro:deterministic
package regfile

import "fmt"

// MaxShadow is the maximum number of shadow cells per register: a 2-bit
// version counter distinguishes up to four versions (§IV-A), i.e. the main
// cell plus three shadows.
const MaxShadow = 3

// PhysReg names one physical register by index. A bare PhysReg is ambiguous
// under the reuse scheme — the same register can hold several live versions —
// so APIs that cross package boundaries must carry the version with it
// (rename.Tag), a rule the tagpair lint analyzer enforces.
type PhysReg uint16

// Ver is a register version: 0 for the main cell, 1..MaxShadow for values
// whose predecessors were checkpointed into shadow cells.
type Ver uint8

// BankSizes gives the number of registers in each bank, indexed by the
// bank's shadow-cell count (0..3).
type BankSizes [MaxShadow + 1]int

// Total returns the total number of physical registers.
func (b BankSizes) Total() int { return b[0] + b[1] + b[2] + b[3] }

// Uniform returns a configuration with n registers, all in bank k.
func Uniform(n, k int) BankSizes {
	var b BankSizes
	b[k] = n
	return b
}

// File is one physical register file (the simulated core has two: integer
// and floating point, per Table I).
type File struct {
	shadows []Ver // shadow-cell count per register (bank membership)
	main    []uint64
	mainVer []Ver
	written []bool // any version written since allocation (scoreboard)
	shadow  [][MaxShadow]uint64

	// ShadowReads counts reads that had to come from a shadow cell. In
	// normal operation only single-use-misprediction repair micro-ops do
	// this (§IV-D1); anything else indicates a renaming bug.
	ShadowReads uint64
	// Recoveries counts recover commands (shadow → main copies).
	Recoveries uint64
	// Reads/Writes/ShadowWrites count port activity for the energy model:
	// ShadowWrites are versioned writes that checkpointed the previous
	// value into a shadow cell in parallel.
	Reads        uint64
	Writes       uint64
	ShadowWrites uint64
}

// New builds a file with the given bank sizes. Registers are numbered with
// bank 0 (no shadows) first, then banks 1..3.
func New(banks BankSizes) *File {
	n := banks.Total()
	if n <= 0 {
		panic("regfile: empty register file")
	}
	f := &File{
		shadows: make([]Ver, 0, n),
		main:    make([]uint64, n),
		mainVer: make([]Ver, n),
		written: make([]bool, n),
		shadow:  make([][MaxShadow]uint64, n),
	}
	for k := 0; k <= MaxShadow; k++ {
		for i := 0; i < banks[k]; i++ {
			f.shadows = append(f.shadows, Ver(k))
		}
	}
	return f
}

// Size returns the number of physical registers.
func (f *File) Size() int { return len(f.main) }

// ShadowCells returns how many shadow cells register p has.
//
//repro:hotpath
func (f *File) ShadowCells(p PhysReg) Ver { return f.shadows[p] }

// MainVer returns the version currently held by p's main cell.
//
//repro:hotpath
func (f *File) MainVer(p PhysReg) Ver { return f.mainVer[p] }

// ResetOnAlloc prepares p for a fresh allocation: the main cell will next be
// written as version 0 and the scoreboard shows no value produced yet.
//
//repro:hotpath
func (f *File) ResetOnAlloc(p PhysReg) {
	f.mainVer[p] = 0
	f.written[p] = false
}

// Produced reports whether version ver of register p has been written since
// p's allocation — the issue queue's readiness scoreboard.
//
//repro:hotpath
func (f *File) Produced(p PhysReg, ver Ver) bool {
	return f.written[p] && f.mainVer[p] >= ver
}

// Write stores val as version ver of register p. Writing a version newer
// than the main cell's pushes the main cell's content into the shadow cell
// indexed by its version — the paper's in-parallel checkpoint write, which
// adds no latency. Versioned writes arrive in order by construction (each
// version's producer consumes the previous version), so skipping a version
// indicates a renaming bug and panics.
//
//repro:hotpath
func (f *File) Write(p PhysReg, ver Ver, val uint64) {
	cur := f.mainVer[p]
	f.written[p] = true
	f.Writes++
	switch {
	case ver == cur || (ver == 0 && cur == 0):
		f.main[p] = val
	case ver == cur+1:
		f.ShadowWrites++
		if cur >= f.shadows[p] {
			panic(fmt.Sprintf("regfile: reg %d version %d write without shadow cell (has %d)", p, ver, f.shadows[p]))
		}
		f.shadow[p][cur] = f.main[p]
		f.main[p] = val
		f.mainVer[p] = ver
	case ver < cur:
		panic(fmt.Sprintf("regfile: reg %d stale write of version %d (main holds %d)", p, ver, cur))
	default:
		panic(fmt.Sprintf("regfile: reg %d skipped version write %d (main holds %d)", p, ver, cur))
	}
}

// Read returns version ver of register p. Reading an old version comes from
// a shadow cell and is counted (only repair micro-ops should do it).
//
//repro:hotpath
func (f *File) Read(p PhysReg, ver Ver) uint64 {
	f.Reads++
	cur := f.mainVer[p]
	switch {
	case ver == cur:
		return f.main[p]
	case ver < cur:
		f.ShadowReads++
		return f.shadow[p][ver]
	default:
		panic(fmt.Sprintf("regfile: reg %d read of future version %d (main holds %d)", p, ver, cur))
	}
}

// Rollback issues a recover command restoring p's main cell to version ver
// if it currently holds a younger one. It reports whether a recovery was
// performed (each recovery costs pipeline cycles; the caller accounts them).
//
//repro:hotpath
func (f *File) Rollback(p PhysReg, ver Ver) bool {
	if f.mainVer[p] <= ver {
		return false
	}
	f.main[p] = f.shadow[p][ver]
	f.mainVer[p] = ver
	f.Recoveries++
	return true
}
