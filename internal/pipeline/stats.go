package pipeline

import "repro/internal/regfile"

// Stats aggregates everything the experiment harnesses need.
type Stats struct {
	Cycles    uint64
	Committed uint64 // architectural instructions (micro-ops excluded)
	MicroOps  uint64 // committed repair micro-ops

	// Front end.
	FetchedInsts     uint64
	FetchStallIcache uint64

	// Rename-stage stall cycles by cause (a cycle is charged once, to the
	// first blocking cause).
	StallNoRegInt uint64
	StallNoRegFP  uint64
	StallROB      uint64
	StallIQ       uint64
	StallLSQ      uint64

	// Branches.
	Branches    uint64
	Mispredicts uint64

	// Speculation.
	SquashedInsts    uint64
	RecoveryCycles   uint64 // extra redirect cycles from shadow recoveries
	ShadowRecoveries uint64

	// Exceptions and interrupts.
	PageFaults uint64
	Interrupts uint64

	// Occupancy histogram for Figure 9: [k][n] = number of samples where
	// exactly n live registers sat at version >= k (k = 1..3).
	OccupancySamples uint64
	Occupancy        [regfile.MaxShadow + 1][]uint64
}

// IPC returns committed instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Committed) / float64(s.Cycles)
}

// MPKI returns branch mispredictions per kilo-instruction.
func (s *Stats) MPKI() float64 {
	if s.Committed == 0 {
		return 0
	}
	return 1000 * float64(s.Mispredicts) / float64(s.Committed)
}
