// Package obs is the pipeline observability layer: an instruction-lifecycle
// and core-event hook interface that the simulated core drives, plus the
// built-in consumers — a fixed-capacity ring-buffer tracer exporting Chrome
// trace_event JSON, a Kanata-style text pipeline view, and a lightweight
// metrics registry (counters and power-of-two histograms) with periodic CSV
// snapshots.
//
// The contract with the pipeline (DESIGN.md §10) is zero overhead when off:
// the core holds a single Observer reference and every emission site is
// guarded by one nil check, so the disabled path costs nothing and the
// simulation's architectural behavior is identical with any observer
// attached (asserted by the golden-stats determinism tests). Observers must
// therefore never mutate simulation state; they only record.
package obs

import (
	"repro/internal/isa"
	"repro/internal/rename"
)

// Stage identifies one step of an instruction's lifecycle.
type Stage uint8

// Lifecycle stages in pipeline order. Squash can arrive at any point after
// Rename; Commit and Squash are terminal.
const (
	StageFetch Stage = iota
	StageRename
	StageIssue
	StageWriteback
	StageCommit
	StageSquash
	numStages
)

// String names the stage.
func (s Stage) String() string {
	switch s {
	case StageFetch:
		return "fetch"
	case StageRename:
		return "rename"
	case StageIssue:
		return "issue"
	case StageWriteback:
		return "writeback"
	case StageCommit:
		return "commit"
	case StageSquash:
		return "squash"
	}
	return "?"
}

// RenameKind classifies the rename-stage outcome of a destination register.
type RenameKind uint8

// Rename outcomes: no destination, fresh allocation, the paper's guaranteed
// (redefining) reuse, predictor-guided speculative reuse, or an injected
// repair move micro-op (§IV-D1).
const (
	RenameNone RenameKind = iota
	RenameAlloc
	RenameReuseRedef
	RenameReuseSpec
	RenameRepair
)

// String names the rename kind.
func (k RenameKind) String() string {
	switch k {
	case RenameAlloc:
		return "alloc"
	case RenameReuseRedef:
		return "reuse"
	case RenameReuseSpec:
		return "reuse*"
	case RenameRepair:
		return "repair"
	}
	return "-"
}

// InstEvent is one instruction-lifecycle event. Every event carries the
// cycle, sequence number and PC; the remaining fields are only meaningful
// for the stages noted on them.
type InstEvent struct {
	Cycle uint64
	Seq   uint64
	PC    uint64
	Stage Stage
	Inst  isa.Inst

	// Rename-stage detail.
	Kind   RenameKind
	Reason rename.Reason // why the reuse decision went the way it did
	Dest   rename.Tag    // destination tag (Kind != RenameNone)
	Micro  bool          // repair move micro-op

	// Commit-stage detail.
	Branch bool
	Taken  bool
}

// CoreKind identifies a non-instruction core event.
type CoreKind uint8

// Core events: per-cycle rename-stage stall causes (charged once per cycle,
// to the first blocking structure, matching pipeline.Stats), renamer
// checkpoint lifecycle, and full-pipeline flush causes.
const (
	CoreStallROB CoreKind = iota
	CoreStallIQ
	CoreStallLSQ
	CoreStallNoRegInt
	CoreStallNoRegFP
	CoreCheckpointCreate  // Seq = branch; a renamer snapshot was taken
	CoreCheckpointRestore // Seq = branch; Arg = shadow-cell recoveries
	CoreFlush             // exception/interrupt flush; Arg = shadow recoveries
	numCoreKinds
)

// String names the core event kind.
func (k CoreKind) String() string {
	switch k {
	case CoreStallROB:
		return "stall-rob"
	case CoreStallIQ:
		return "stall-iq"
	case CoreStallLSQ:
		return "stall-lsq"
	case CoreStallNoRegInt:
		return "stall-noreg-int"
	case CoreStallNoRegFP:
		return "stall-noreg-fp"
	case CoreCheckpointCreate:
		return "ckpt-create"
	case CoreCheckpointRestore:
		return "ckpt-restore"
	case CoreFlush:
		return "flush"
	}
	return "?"
}

// CoreEvent is one core (non-instruction) event.
type CoreEvent struct {
	Cycle uint64
	Kind  CoreKind
	Seq   uint64 // owning instruction where applicable (checkpoints)
	Arg   uint64 // kind-specific payload (e.g. recovery count)
}

// Tick is the once-per-cycle sample delivered to attached observers, carrying
// the occupancies that per-event hooks cannot reconstruct.
type Tick struct {
	Cycle     uint64
	Committed uint64 // architectural instructions committed so far
	IQ        int    // issue-queue occupancy entering this cycle's end
	ROB       int    // reorder-buffer occupancy
}

// Observer receives the pipeline's event stream. Implementations must be
// side-effect free with respect to the simulation and should avoid heap
// allocation in these hooks: they run inside the simulator's zero-allocation
// cycle loop.
type Observer interface {
	Inst(e InstEvent)
	Core(e CoreEvent)
	Tick(t Tick)
}

// multi fans the event stream out to several observers.
type multi struct{ obs []Observer }

func (m multi) Inst(e InstEvent) {
	for _, o := range m.obs {
		o.Inst(e)
	}
}

func (m multi) Core(e CoreEvent) {
	for _, o := range m.obs {
		o.Core(e)
	}
}

func (m multi) Tick(t Tick) {
	for _, o := range m.obs {
		o.Tick(t)
	}
}

// Combine returns an Observer that forwards every event to each non-nil
// observer in order. With zero or one non-nil argument it returns nil or
// that observer directly, so callers can pass the result straight to the
// pipeline config without losing the nil fast path.
func Combine(obs ...Observer) Observer {
	kept := make([]Observer, 0, len(obs))
	for _, o := range obs {
		if o != nil {
			kept = append(kept, o)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return multi{obs: kept}
}
