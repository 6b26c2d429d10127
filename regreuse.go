// Package regreuse is the public API of this repository: a reproduction of
// "A Novel Register Renaming Technique for Out-of-Order Processors"
// (Tabani, Arnau, Tubella, González — HPCA 2018).
//
// The package wraps a from-scratch, cycle-level out-of-order core
// (internal/pipeline) that models both the conventional merged-register-file
// renaming baseline and the paper's physical-register-reuse scheme: a
// Physical Register Table with Read bits and 2-bit version counters, a
// multi-bank register file with embedded shadow cells, a register type
// predictor, and precise exceptions recovered from shadow cells.
//
// Quick start:
//
//	res, err := regreuse.RunWorkload("dgemm", 1, regreuse.Config{Scheme: regreuse.Reuse})
//	fmt.Printf("IPC = %.2f, reuses = %d\n", res.IPC, res.Reuses)
//
// The experiment entry points (Motivation, SpeedupSweep, AggregateSweep,
// PredictorBreakdown, OccupancyStudy, AreaTable, EqualAreaTable,
// EnergyComparison) regenerate every figure and table of the paper's
// evaluation; cmd/paper drives them all and EXPERIMENTS.md records the
// results.
package regreuse

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/ckpt"
	"repro/internal/isa"
	"repro/internal/memsys"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/prog"
	"repro/internal/regfile"
	"repro/internal/rename"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/workloads"
)

// Scheme selects a renaming scheme.
type Scheme = pipeline.Scheme

// The renaming schemes under comparison: the conventional baseline, the
// paper's reuse scheme, and the early-release related-work comparator
// (§VII).
const (
	Baseline     = pipeline.Baseline
	Reuse        = pipeline.Reuse
	EarlyRelease = pipeline.EarlyRelease
)

// ParseScheme maps a scheme name ("baseline", "reuse", "early") to its
// Scheme value. CLI flags and sweep specs all validate through this one
// function, so every surface accepts the same spellings with one error
// message.
func ParseScheme(s string) (Scheme, error) { return pipeline.ParseScheme(s) }

// Suite re-exports the benchmark suite labels.
type Suite = workloads.Suite

// Suite labels (mirroring the paper's benchmark grouping).
const (
	SPECint   = workloads.SPECint
	SPECfp    = workloads.SPECfp
	Media     = workloads.Media
	Cognitive = workloads.Cognitive
)

// Config selects the simulation parameters exposed at the API surface; zero
// values take the paper's Table I defaults.
type Config struct {
	Scheme Scheme
	// IntRegs/FPRegs: physical register file layouts (bank sizes indexed
	// by shadow-cell count). Zero value: 128 registers in the layout
	// appropriate for the scheme.
	IntRegs regfile.BankSizes
	FPRegs  regfile.BankSizes
	// MaxInsts stops the simulation after that many committed
	// instructions (0 = run to HALT).
	MaxInsts uint64
	// ReuseDepth caps reuse-chain length (0 = the paper's 3).
	ReuseDepth int
	// DisableSpeculativeReuse keeps only the guaranteed (redefining)
	// reuse, the ablation of §IV-D.
	DisableSpeculativeReuse bool
	// InterruptEvery injects a timer interrupt each N cycles (0 = off).
	InterruptEvery uint64
	// CheckOracle runs the lockstep architectural oracle.
	CheckOracle bool
	// Observer attaches an instruction-lifecycle/core-event observer
	// (internal/obs: tracer, pipeline view, metrics — combine with
	// obs.Combine). nil = observability off, the zero-overhead path.
	Observer obs.Observer

	// FastForward skips the first N instructions at functional-emulator
	// speed (~40x the detailed core) and boots the detailed core
	// mid-program with the exact architectural state (0 = off). The
	// committed instruction stream from that point on is bit-identical to
	// an uninterrupted run's suffix.
	FastForward uint64
	// Warmup replays the last N fast-forwarded instructions (clamped to
	// FastForward) into the caches and branch predictor before detailed
	// simulation starts, shrinking the cold-boot bias.
	Warmup uint64
	// Sample enables interval sampling with plan "warmup:detail:interval"
	// (see internal/ckpt.Plan): the run alternates functional fast-forward
	// with short detailed intervals and reports IPC/reuse-rate estimates
	// with standard errors in Result.Sampled. Mutually exclusive with
	// FastForward. The checksum is still validated on the complete
	// functional execution.
	Sample string
	// SampleWorkers fans the detailed intervals of a sampled run across
	// up to N goroutines (0 or 1 = serial, <0 = GOMAXPROCS). The estimate
	// is bit-identical for every worker count: interval results are merged
	// in interval-index order regardless of completion order. With an
	// Observer the intervals run serially, because observers are not safe
	// for concurrent use.
	SampleWorkers int
	// CkptDir, when non-empty, persists fast-forward checkpoints in a
	// content-addressed on-disk store so repeated runs of the same
	// workload skip the functional prefix entirely.
	CkptDir string
}

func (c Config) pipelineConfig() pipeline.Config {
	cfg := pipeline.DefaultConfig(c.Scheme)
	if c.IntRegs != (regfile.BankSizes{}) {
		cfg.IntRegs = c.IntRegs
	}
	if c.FPRegs != (regfile.BankSizes{}) {
		cfg.FPRegs = c.FPRegs
	}
	cfg.MaxInsts = c.MaxInsts
	if c.ReuseDepth != 0 {
		cfg.ReuseCfg.MaxVersions = c.ReuseDepth
	}
	cfg.ReuseCfg.SpeculativeReuse = !c.DisableSpeculativeReuse
	cfg.InterruptEvery = c.InterruptEvery
	cfg.CheckOracle = c.CheckOracle
	cfg.Observer = c.Observer
	return cfg
}

// Result summarizes one simulation. The embedded sim.Counters carries
// Cycles, Insts, MicroOps and the renaming, predictor, stall and recovery
// counters, the int and FP files summed.
//
// In an interval-sampled run (Config.Sample) every counter is a sum over
// the measured intervals, IPC is the interval-mean estimate, and Halted and
// Checksum describe the complete functional execution. MPKI stays zero,
// and so do the full-detail pointers, because no single core runs end to
// end.
type Result struct {
	Workload string
	Suite    Suite
	Scheme   Scheme

	sim.Counters
	IPC        float64
	MPKI       float64
	Halted     bool
	Checksum   uint64
	ChecksumOK bool

	// FFInsts counts instructions executed at functional speed instead of
	// in the detailed core (fast-forward prefix or skipped sampled
	// regions); the counters cover only the detailed portion.
	FFInsts uint64
	// Sampled carries the statistical estimates of an interval-sampled run
	// (nil for full-fidelity runs).
	Sampled *SampleEstimate

	// Full detail for power users.
	Pipeline *pipeline.Stats
	RenInt   *rename.Stats
	RenFP    *rename.Stats
	Hier     *memsys.Hierarchy
}

// SampleEstimate reports an interval-sampled run's estimates: sample means
// across the measured detail intervals with the standard error of each
// mean. It is the sweep's per-job summary, so both encode alike in JSON.
type SampleEstimate = sweep.SampleSummary

// RunWorkload simulates a named workload (scale 1 = small/test, 4 =
// reference) under cfg.
func RunWorkload(name string, scale int, cfg Config) (Result, error) {
	w, ok := workloads.ByName(name, scale)
	if !ok {
		return Result{}, fmt.Errorf("regreuse: unknown workload %q (see workloads: %v)", name, workloads.Names())
	}
	return run(sim.Spec{Program: w.Program(), Want: w.Want, Check: true},
		Result{Workload: w.Name, Suite: w.Suite}, cfg)
}

// RunProgram simulates an arbitrary assembled program under cfg.
func RunProgram(p *prog.Program, cfg Config) (Result, error) {
	return run(sim.Spec{Program: p}, Result{Workload: "custom"}, cfg)
}

// run completes s from cfg, runs it on the internal/sim runner and maps
// the outcome onto res.
func run(s sim.Spec, res Result, cfg Config) (Result, error) {
	s.Config = cfg.pipelineConfig()
	s.FastForward, s.Warmup = cfg.FastForward, cfg.Warmup
	s.Sample, s.SampleWorkers = cfg.Sample, cfg.SampleWorkers
	if cfg.CkptDir != "" && cfg.FastForward > 0 {
		var err error
		if s.Ckpt, err = ckpt.NewStore(cfg.CkptDir); err != nil {
			return Result{}, fmt.Errorf("regreuse: checkpoint store: %w", err)
		}
	}
	out, err := sim.Run(s)
	res.Scheme = cfg.Scheme
	res.Counters = out.Counters
	res.IPC, res.MPKI = out.IPC, out.MPKI
	res.Halted, res.Checksum, res.ChecksumOK = out.Halted, out.Checksum, out.ChecksumOK
	res.FFInsts = out.FFInsts
	res.Sampled = sweep.Summarize(out.Estimate)
	if c := out.Core; c != nil {
		res.Pipeline = c.Stats()
		res.RenInt, res.RenFP = c.RenStats(isa.IntReg), c.RenStats(isa.FPReg)
		res.Hier = c.Hierarchy()
	}
	if err != nil {
		return res, fmt.Errorf("regreuse: %s: %w", res.Workload, err)
	}
	return res, nil
}

// Workloads lists the available workload names.
func Workloads() []string { return workloads.Names() }

// AnalyzeWorkload runs the functional emulator over a workload and returns
// the single-use / consumer-count / reuse-chain report (Figures 1-3). It
// rides the streaming collector on the batched commit-sink path; the
// analysis package tests pin it against a per-commit reference collector.
func AnalyzeWorkload(name string, scale int) (analysis.Report, error) {
	w, ok := workloads.ByName(name, scale)
	if !ok {
		return analysis.Report{}, fmt.Errorf("regreuse: unknown workload %q", name)
	}
	return analysis.AnalyzeProgram(w.Program(), 1<<32)
}
