// Package analysis implements the paper's motivational trace analyses over
// committed-instruction streams from the architectural emulator:
//
//   - Figure 1: the percentage of instructions with a destination register
//     that are the sole consumer of one of their source values, split by
//     whether they redefine that same logical register;
//   - Figure 2: the distribution of consumer counts per produced value;
//   - Figure 3: the percentage of instructions that could reuse a physical
//     register, bucketed by position in the reuse chain (one, two, three,
//     or more reuses of the same register).
//
// Stream (stream.go) is the one collector: it rides the emulator's batched
// commit sink (emu.RunToHaltBatch) and keeps its state per logical
// register, so most committed rows cost a few array updates. Only a
// definition whose Figure 1 and Figure 3 fate waits on later commits takes
// a pooled record, and redefinition retires it. It runs in bounded memory
// with zero steady-state allocations; AnalyzeProgram is its entry point.
// The package tests keep a reference per-commit collector
// (collector_test.go) that retains one record per dynamic definition and
// classifies everything at the end. It is easy to audit, and exact Report
// equality against it is pinned over every workload, seeded random
// programs and a native fuzz target (stream_test.go), so it stays the
// executable specification.
//
//repro:deterministic
package analysis

// Report is the finalized analysis.
type Report struct {
	TotalInsts uint64
	DestInsts  uint64

	// ConsumerHist[k] counts values consumed exactly k times, with the
	// last bucket aggregating 6+ (Figure 2's categories).
	ConsumerHist [7]uint64
	TotalDefs    uint64

	// Figure 1: instructions with a destination that are the sole consumer
	// of one of their source values.
	SingleUseRedef uint64 // ...and redefine that same logical register
	SingleUseOther uint64 // ...and define a different register

	// Figure 3: reuse events by chain position under unlimited chaining.
	// ReuseAtDepth[1..3] and ReuseDeeper count instructions whose (ideal)
	// reuse would be the 1st, 2nd, 3rd, or later reuse of a register.
	ReuseAtDepth [4]uint64
	ReuseDeeper  uint64
}

// Percent returns 100*part/whole, 0 when whole is 0.
func Percent(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// SingleUsePct returns Figure 1's two series as percentages of all
// instructions: (redefining, other).
func (r Report) SingleUsePct() (float64, float64) {
	return Percent(r.SingleUseRedef, r.TotalInsts), Percent(r.SingleUseOther, r.TotalInsts)
}

// ReusablePct returns Figure 3's series as percentages of instructions with
// a destination register: one, two, three, and more-than-three reuses.
func (r Report) ReusablePct() [4]float64 {
	return [4]float64{
		Percent(r.ReuseAtDepth[1], r.DestInsts),
		Percent(r.ReuseAtDepth[2], r.DestInsts),
		Percent(r.ReuseAtDepth[3], r.DestInsts),
		Percent(r.ReuseDeeper, r.DestInsts),
	}
}

// ConsumerPct returns Figure 2's distribution as percentages of all values
// that have at least one consumer, buckets 1..5 and 6+.
func (r Report) ConsumerPct() [6]float64 {
	var consumed uint64
	for k := 1; k < len(r.ConsumerHist); k++ {
		consumed += r.ConsumerHist[k]
	}
	var out [6]float64
	for k := 1; k <= 6; k++ {
		out[k-1] = Percent(r.ConsumerHist[k], consumed)
	}
	return out
}
