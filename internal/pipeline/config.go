// Package pipeline implements the cycle-level out-of-order core used to
// evaluate the renaming schemes: an execute-driven model with real
// wrong-path execution, a reorder buffer, a unified issue queue with
// (physical register, version) wakeup tags, a load/store queue with
// store-to-load forwarding, functional-unit pools, branch checkpointing,
// and precise exceptions/interrupts recovered through the check-pointed
// register file.
//
//repro:deterministic
package pipeline

import (
	"fmt"

	"repro/internal/bpred"
	"repro/internal/emu"
	"repro/internal/memsys"
	"repro/internal/obs"
	"repro/internal/regfile"
	"repro/internal/rename"
)

// Scheme selects the renaming scheme under evaluation.
type Scheme int

const (
	// Baseline is the conventional merged-register-file scheme.
	Baseline Scheme = iota
	// Reuse is the paper's register-sharing scheme.
	Reuse
	// EarlyRelease is the checkpointed early-register-release comparator
	// (Ergin et al., the paper's §VII related work): registers free at the
	// last consumer's execution rather than at its rename.
	EarlyRelease
)

// String names the scheme.
func (s Scheme) String() string {
	switch s {
	case Reuse:
		return "reuse"
	case EarlyRelease:
		return "early"
	default:
		return "baseline"
	}
}

// ParseScheme maps a scheme name to its Scheme value. It is the single
// validator shared by the CLI flags (renamesim, trace) and sweep specs, so
// every surface accepts exactly the same spellings with one error message.
func ParseScheme(s string) (Scheme, error) {
	switch s {
	case "baseline":
		return Baseline, nil
	case "reuse":
		return Reuse, nil
	case "early":
		return EarlyRelease, nil
	}
	return 0, fmt.Errorf("unknown scheme %q (want baseline, reuse, or early)", s)
}

// DefaultMaxCycles is the cycle bound of a run whose Config.MaxCycles is 0,
// so a wedged core fails instead of spinning.
const DefaultMaxCycles = 1 << 36

// Config is the core configuration. DefaultConfig reproduces Table I.
type Config struct {
	Scheme Scheme

	// Machine widths.
	FetchWidth  int
	RenameWidth int // decode/dispatch width (Table I: 3)
	IssueWidth  int
	CommitWidth int

	// Structure sizes.
	ROBSize    int // Table I: 128
	IQSize     int // Table I: 40
	FetchQSize int // Table I: 32
	LQSize     int
	SQSize     int

	// Register files: bank sizes per class (bank index = shadow cells).
	// The baseline scheme requires all registers in bank 0.
	IntRegs regfile.BankSizes
	FPRegs  regfile.BankSizes

	// Functional units: slots per FU class (index isa.FU).
	FUCount [5 + 1]int

	// RedirectCycles is the extra front-end refill charged on a branch
	// misprediction redirect, tuned so the minimum total penalty matches
	// Table I's 15 cycles.
	RedirectCycles uint64
	// RecoverWidth is how many shadow-cell recover commands complete per
	// cycle during squash/exception recovery (§IV-C2).
	RecoverWidth int

	// Reuse-scheme tuning.
	ReuseCfg      rename.ReuseConfig
	PredictorSize int // register type predictor entries (paper: 512)

	// Memory system and branch predictors.
	Mem   memsys.Config
	Bpred bpred.Config

	// Exceptions/interrupts.
	DemandPaging    bool   // first touch of a data page faults once
	PageFaultCycles uint64 // handler cost
	InterruptEvery  uint64 // timer interrupt period in cycles (0 = off)
	InterruptCycles uint64 // handler cost

	// Simulation control.
	MaxInsts  uint64 // stop after this many committed instructions (0 = to HALT)
	MaxCycles uint64 // hard safety limit (0 = DefaultMaxCycles)
	// Boot, when non-nil, starts the core mid-program from an architectural
	// snapshot produced by functional fast-forward (internal/ckpt): memory
	// image, registers and PC are seeded from the snapshot and the renamers
	// begin at the identity logical→physical map, exactly the state a reset
	// core would reach by committing the same prefix. The snapshot's pages
	// count as resident for the demand-paging model.
	Boot *emu.Snapshot
	// BootWarmup is a functionally-executed commit trace of the
	// instructions immediately preceding Boot; it is replayed into the
	// caches and branch predictor before cycle zero so a sampled detail
	// interval does not start from cold microarchitectural state. Ignored
	// when Boot is nil.
	BootWarmup []emu.Commit
	// CheckOracle runs the architectural emulator in lockstep and fails
	// on any divergence in committed PCs, register writes, or stores.
	CheckOracle bool
	// Observer, when non-nil, receives the full instruction-lifecycle and
	// core event stream (internal/obs). Every emission site is behind a
	// single nil check, so the disabled path adds no per-cycle cost and
	// attaching an observer never changes architectural behavior (it must
	// not mutate simulation state). A typed-nil observer is not detected;
	// pass a plain nil to disable.
	Observer obs.Observer
	// DebugInvariants enables O(ROB) checks. At every dispatch, each
	// source operand that is not yet ready must have an in-flight producer
	// in the ROB, or the instruction would wait forever. After every cycle
	// of RunTo, the issue-queue count, pending counts, ready list and
	// wakeup lists must match the ROB window (checkWindow). Under
	// EarlyRelease, every cycle's speculation boundary and branch ring
	// must match a ROB walk. The lockstep-oracle tests turn it on for
	// every scheme.
	DebugInvariants bool
	// OccupancySampleInterval enables Figure 9's shadow-bank occupancy
	// sampling (reuse scheme only) every N cycles; 0 disables sampling and
	// its per-cycle cost entirely.
	OccupancySampleInterval uint64
}

// DefaultConfig returns the Table I configuration for the given scheme with
// 128 physical registers per file. For the reuse scheme the register file
// uses the paper's hybrid layout for an equal-area 128-register baseline
// budget; the area package derives other budgets.
func DefaultConfig(s Scheme) Config {
	cfg := Config{
		Scheme:      s,
		FetchWidth:  3,
		RenameWidth: 3,
		IssueWidth:  6,
		CommitWidth: 3,
		ROBSize:     128,
		IQSize:      40,
		FetchQSize:  32,
		LQSize:      32,
		SQSize:      24,

		RedirectCycles: 11,
		RecoverWidth:   2,

		ReuseCfg:      rename.DefaultReuseConfig(),
		PredictorSize: 512,

		Mem:   memsys.DefaultConfig(),
		Bpred: bpred.DefaultConfig(),

		DemandPaging:    true,
		PageFaultCycles: 300,
		InterruptEvery:  0,
		InterruptCycles: 120,
	}
	cfg.FUCount[1] = 2 // int ALU (also branches)
	cfg.FUCount[2] = 1 // int mul/div
	cfg.FUCount[3] = 2 // FP ALU
	cfg.FUCount[4] = 1 // FP mul/div/sqrt
	cfg.FUCount[5] = 2 // memory ports
	if s == Baseline {
		cfg.IntRegs = regfile.Uniform(128, 0)
		cfg.FPRegs = regfile.Uniform(128, 0)
	} else {
		// Reuse and EarlyRelease both use the hybrid shadow-cell file.
		// Equal-area hybrid layout in the spirit of Table III's 128-reg
		// row (between its 112 and the uncut 128 budgets).
		cfg.IntRegs = regfile.BankSizes{89, 8, 8, 8}
		cfg.FPRegs = regfile.BankSizes{89, 8, 8, 8}
	}
	return cfg
}
