// Package rename implements the two register-renaming schemes the paper
// compares:
//
//   - Baseline: a merged register file with a single free list; a physical
//     register is released when the instruction redefining its logical
//     register commits (§II).
//   - Reuse: the paper's contribution (§IV) — a Physical Register Table
//     (PRT) with a Read bit and 2-bit version counter per physical register,
//     physical-register sharing between a producer and its single consumer,
//     a 512-entry register type predictor that chooses which shadow-cell
//     bank to allocate from, and repair of single-use mispredictions via
//     move micro-ops.
//
// One Renamer instance manages one register class (integer or floating
// point); the simulated core has two of each (Table I's decoupled files).
//
//repro:deterministic
package rename

import "repro/internal/regfile"

// PhysReg and Ver are the physical-register index and version-counter types,
// re-exported so renaming code reads naturally; the defined types live in
// regfile (the layer that owns the versioned cells).
type (
	PhysReg = regfile.PhysReg
	Ver     = regfile.Ver
)

// Tag names one value: a physical register plus its version. The baseline
// scheme always uses version 0; the reuse scheme appends the PRT's 2-bit
// counter so the issue queue can tell versions of a shared register apart
// (§IV-A). The pair must travel together across package boundaries — a bare
// PhysReg cannot distinguish the live versions of a shared register — which
// is exactly what the tagpair lint analyzer enforces.
type Tag struct {
	Reg PhysReg
	Ver Ver
}

// SrcInfo describes a source operand's current mapping.
type SrcInfo struct {
	Tag Tag
	// FirstUse reports that the Read bit was clear before this
	// instruction: it is the first consumer of the value (reuse scheme
	// only; always false for the baseline).
	FirstUse bool
	// Stolen reports that the mapping's physical register was reused by a
	// different logical register (single-use misprediction, §IV-D1): the
	// value must be migrated to a fresh register by a move micro-op
	// before this instruction can be renamed.
	Stolen bool
}

// DestResult describes the outcome of renaming a destination register. The
// pipeline stores it in the ROB entry and hands it back to Commit in order.
type DestResult struct {
	Log uint8
	Tag Tag
	// Reused: the destination shares a source's physical register.
	Reused bool
	// ReusedSameLog: the reuse was the guaranteed (redefining) kind.
	ReusedSameLog bool
	// Allocated: a fresh physical register was taken from a free list.
	Allocated bool
	// Reason records why the reuse decision went the way it did, for
	// observability consumers. It does not influence renaming.
	Reason Reason
}

// Reason explains a reuse renamer's decision for one destination rename:
// either which kind of reuse happened, or — for an allocation — the most
// specific obstacle that prevented reusing a source register. The baseline
// and early-release schemes always report ReasonNone.
type Reason uint8

// Reuse-decision reasons, roughly ordered from "no candidate existed" to
// "candidate existed but a structural limit blocked it". When several source
// candidates fail for different reasons the most specific (highest-valued)
// one is reported.
const (
	// ReasonNone: no same-class source candidate (or a non-reuse scheme).
	ReasonNone Reason = iota
	// ReasonSrcRead: every candidate's value had already been consumed
	// (Read bit set — this instruction is not the first consumer).
	ReasonSrcRead
	// ReasonNotPredicted: a first-consumer candidate existed but the
	// instruction does not redefine it and the type predictor did not
	// license speculative reuse (§IV-D).
	ReasonNotPredicted
	// ReasonCtrSaturated: the candidate's 2-bit version counter is at the
	// configured maximum (§IV-A).
	ReasonCtrSaturated
	// ReasonNoShadowCell: the candidate's bank has no free shadow cell to
	// checkpoint the superseded version into (§IV-C).
	ReasonNoShadowCell
	// ReasonReusedRedef: guaranteed reuse — the instruction redefines the
	// single-use source's logical register.
	ReasonReusedRedef
	// ReasonReusedSpec: speculative predictor-guided reuse of a register
	// the instruction does not redefine (§IV-D).
	ReasonReusedSpec
)

// String names the reason.
func (r Reason) String() string {
	switch r {
	case ReasonSrcRead:
		return "src-already-read"
	case ReasonNotPredicted:
		return "not-predicted-single-use"
	case ReasonCtrSaturated:
		return "counter-saturated"
	case ReasonNoShadowCell:
		return "no-shadow-cell"
	case ReasonReusedRedef:
		return "reused-redefining"
	case ReasonReusedSpec:
		return "reused-speculative"
	}
	return "no-candidate"
}

// Repair describes the move micro-op needed to fix a stolen mapping: copy
// the old value (From, possibly from a shadow cell) into a fresh register
// (the micro-op's DestResult). Checkpointed reports whether the stolen
// register's newer version had already been written, i.e. the value now
// lives in a shadow cell and the slower recover sequence applies (§IV-D1's
// instruction 2(a) vs 2(b)).
type Repair struct {
	From         Tag
	Checkpointed bool
	Dest         DestResult
}

// Checkpoint is an opaque renamer snapshot taken at every renamed branch.
type Checkpoint interface{}

// Renamer is the per-class renaming engine.
type Renamer interface {
	// PeekSrc inspects a source operand's mapping without side effects.
	PeekSrc(log uint8) SrcInfo

	// MarkSrcRead records a consumer of log's current value (sets the
	// Read bit, detects multi-use) and returns its tag. Used for sources
	// whose class differs from the destination's; same-class sources are
	// marked inside RenameDest.
	MarkSrcRead(log uint8) Tag

	// RenameDest renames an instruction's destination. srcLogs are the
	// instruction's *same-class* source logical registers (deduplicated,
	// none stolen); their Read bits are updated as part of the call. On
	// success the mapping is updated and (reuse scheme) a register may be
	// shared instead of allocated. Returns ok=false — with no side
	// effects — when a fresh register is needed but no bank has one.
	RenameDest(pc uint64, destLog uint8, srcLogs []uint8) (DestResult, bool)

	// RepairSteal allocates a fresh register for a stolen mapping and
	// returns the move micro-op description. ok=false means no free
	// register (rename stalls).
	RepairSteal(log uint8) (Repair, bool)

	// Commit retires an instruction's destination in program order:
	// updates the retirement map and releases dead physical registers.
	Commit(r DestResult)

	// Checkpoint records what Restore needs to rewind speculative state
	// to this point. Every scheme keeps the map table and the free-ring
	// heads. Reuse also copies its PRT arrays (ctr, Read bits, maxVer).
	// Early keeps only the branch's sequence number besides: it rebuilds
	// the rest from the ring slots popped since, which are exactly the
	// registers allocated after the checkpoint. Restore rewinds to it,
	// issuing register-file recover commands, and returns how many
	// recoveries were needed (the pipeline charges them as extra redirect
	// cycles). ReleaseCheckpoint returns a checkpoint that will never be
	// restored (its branch committed or was squashed) to the renamer's
	// internal pool.
	Checkpoint() Checkpoint
	Restore(c Checkpoint) int
	ReleaseCheckpoint(c Checkpoint)

	// RestoreArch rebuilds speculative state from the retirement map
	// after an exception or interrupt and returns the number of shadow
	// recoveries performed.
	RestoreArch() int

	// FreeRegs returns the number of currently free physical registers.
	FreeRegs() int

	// RetireTag returns the architectural (retirement-map) tag of a
	// logical register, used by the pipeline's precise-state checks.
	RetireTag(log uint8) Tag

	// Stats exposes the scheme's counters.
	Stats() *Stats
}

// Stats aggregates renaming events for the paper's figures.
type Stats struct {
	Allocations   uint64
	AllocsPerBank [regfile.MaxShadow + 1]uint64
	// Reuses indexed by the version produced (1..3).
	ReusesByVer   [regfile.MaxShadow + 1]uint64
	ReuseSameLog  uint64
	ReusePredict  uint64
	BlockedShadow uint64 // reuse prevented: no free shadow cell
	BlockedSat    uint64 // reuse prevented: 2-bit counter saturated
	MultiUseSeen  uint64 // predicted-single-use register read twice
	Repairs       uint64
	Releases      uint64
	// Predictor outcome classification at release (Fig. 12).
	PredReuseRight  uint64 // allocated with shadows, was reused
	PredReuseWrong  uint64 // allocated with shadows, never reused
	PredNormalRight uint64 // allocated normal, never blocked a reuse
	PredNormalWrong uint64 // allocated normal, blocked a reuse (lost opportunity)
}

// TotalReuses sums reuse events across versions.
func (s *Stats) TotalReuses() uint64 {
	var t uint64
	for _, v := range s.ReusesByVer {
		t += v
	}
	return t
}
