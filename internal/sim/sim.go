// Package sim runs one program on the detailed core: from reset, booted
// from a ckpt.Prepare checkpoint, or interval-sampled through ckpt.SampleN.
// It is the one run path under the public API, sweep jobs and the figure
// drivers, and it owns the register-file rules they share: RegFile pairs a
// baseline size with its equal-area hybrid, and Swept applies Figure 10's
// pressured-file convention. Results feed the sweep's content-addressed
// cache, so equal specs must give bit-identical results.
//
//repro:deterministic
package sim

import (
	"fmt"
	"sync"

	"repro/internal/area"
	"repro/internal/ckpt"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/prog"
	"repro/internal/regfile"
	"repro/internal/workloads"
)

// RegFile is the file scheme gets at baseline-equivalent size n (§VI-A,
// Table III): n plain registers for the baseline, and the equal-area
// shadow-cell hybrid for reuse and early release.
func RegFile(scheme pipeline.Scheme, n int) regfile.BankSizes {
	if scheme == pipeline.Baseline {
		return regfile.Uniform(n, 0)
	}
	return area.EqualAreaConfig(n, 64)
}

// Swept applies Figure 10's convention to cfg and returns the class of the
// swept file: the workload's pressured file (workloads.FPHeavy) gets
// RegFile(cfg.Scheme, n), and the other file stays ample at 128 registers.
func Swept(cfg *pipeline.Config, workload string, n int) isa.RegClass {
	swept, ample, class := &cfg.IntRegs, &cfg.FPRegs, isa.IntReg
	if workloads.FPHeavy(workload) {
		swept, ample, class = ample, swept, isa.FPReg
	}
	*swept, *ample = RegFile(cfg.Scheme, n), regfile.Uniform(128, 0)
	return class
}

// Check is the rule a core configuration must meet, which Run applies
// before it builds a core and sweep specs before they expand: each register
// file backs its class's 32 logical registers with at least one register to
// spare, and the reuse depth, the version cap of the reuse scheme's
// counter, is 1 to regfile.MaxShadow (a depth of 0 at the public surfaces
// stands for the paper's 3 and never reaches a Config).
func Check(cfg pipeline.Config) error {
	if n := cfg.IntRegs.Total(); n <= isa.NumIntRegs {
		return fmt.Errorf("an integer register file of %d cannot back %d logical registers", n, isa.NumIntRegs)
	}
	if n := cfg.FPRegs.Total(); n <= isa.NumFPRegs {
		return fmt.Errorf("an FP register file of %d cannot back %d logical registers", n, isa.NumFPRegs)
	}
	if d := cfg.ReuseCfg.MaxVersions; d < 1 || d > regfile.MaxShadow {
		return fmt.Errorf("reuse depth %d out of range 1..%d", d, regfile.MaxShadow)
	}
	return nil
}

// Spec names one run.
type Spec struct {
	Program *prog.Program
	// Config is the core; the runner sets its boot state.
	// MaxInsts bounds a whole run, or the functional walk of a sampled one.
	Config pipeline.Config
	// Check requires workloads.CheckReg to hold Want if the program halts.
	Want  uint64
	Check bool

	// FastForward > 0 boots the core at that instruction, with the last
	// Warmup instructions replayed into the caches and branch predictor;
	// a non-nil Ckpt serves and keeps the checkpoints.
	FastForward, Warmup uint64
	Ckpt                *ckpt.Store

	// Sample, a "warmup:detail:interval" plan, runs interval-sampled, the
	// intervals fanned across SampleWorkers goroutines (0 or 1 = serial,
	// <0 = GOMAXPROCS). The result is the same for every count.
	Sample        string
	SampleWorkers int
}

// Counters is the counter set of one run, the int and FP renamers summed.
// In a sampled run every field is a sum over the measured intervals.
type Counters struct {
	Cycles, Insts, MicroOps uint64

	Allocations  uint64
	Reuses       uint64
	ReusesByVer  [4]uint64
	ReuseSameLog uint64
	ReusePredict uint64
	Repairs      uint64

	PredReuseRight, PredReuseWrong   uint64
	PredNormalRight, PredNormalWrong uint64

	StallNoReg, StallROB, StallIQ uint64

	PageFaults, Interrupts, ShadowRecoveries uint64
}

// read takes the counters of core so far.
func read(core *pipeline.Core) Counters {
	st := core.Stats()
	ri, rf := core.RenStats(isa.IntReg), core.RenStats(isa.FPReg)
	c := Counters{
		Cycles:   st.Cycles,
		Insts:    st.Committed,
		MicroOps: st.MicroOps,

		Allocations:  ri.Allocations + rf.Allocations,
		Reuses:       ri.TotalReuses() + rf.TotalReuses(),
		ReuseSameLog: ri.ReuseSameLog + rf.ReuseSameLog,
		ReusePredict: ri.ReusePredict + rf.ReusePredict,
		Repairs:      ri.Repairs + rf.Repairs,

		PredReuseRight:  ri.PredReuseRight + rf.PredReuseRight,
		PredReuseWrong:  ri.PredReuseWrong + rf.PredReuseWrong,
		PredNormalRight: ri.PredNormalRight + rf.PredNormalRight,
		PredNormalWrong: ri.PredNormalWrong + rf.PredNormalWrong,

		StallNoReg: st.StallNoRegInt + st.StallNoRegFP,
		StallROB:   st.StallROB,
		StallIQ:    st.StallIQ,

		PageFaults:       st.PageFaults,
		Interrupts:       st.Interrupts,
		ShadowRecoveries: st.ShadowRecoveries,
	}
	for v := 1; v < len(c.ReusesByVer); v++ {
		c.ReusesByVer[v] = ri.ReusesByVer[v] + rf.ReusesByVer[v]
	}
	return c
}

// zip applies f to every counter of c paired with the same counter of d.
func (c *Counters) zip(d *Counters, f func(x *uint64, y uint64)) {
	f(&c.Cycles, d.Cycles)
	f(&c.Insts, d.Insts)
	f(&c.MicroOps, d.MicroOps)
	f(&c.Allocations, d.Allocations)
	f(&c.Reuses, d.Reuses)
	for v := range c.ReusesByVer {
		f(&c.ReusesByVer[v], d.ReusesByVer[v])
	}
	f(&c.ReuseSameLog, d.ReuseSameLog)
	f(&c.ReusePredict, d.ReusePredict)
	f(&c.Repairs, d.Repairs)
	f(&c.PredReuseRight, d.PredReuseRight)
	f(&c.PredReuseWrong, d.PredReuseWrong)
	f(&c.PredNormalRight, d.PredNormalRight)
	f(&c.PredNormalWrong, d.PredNormalWrong)
	f(&c.StallNoReg, d.StallNoReg)
	f(&c.StallROB, d.StallROB)
	f(&c.StallIQ, d.StallIQ)
	f(&c.PageFaults, d.PageFaults)
	f(&c.Interrupts, d.Interrupts)
	f(&c.ShadowRecoveries, d.ShadowRecoveries)
}

// add sums d into c.
func (c *Counters) add(d Counters) { c.zip(&d, func(x *uint64, y uint64) { *x += y }) }

// sub leaves in c what was counted after base was read.
func (c *Counters) sub(base Counters) { c.zip(&base, func(x *uint64, y uint64) { *x -= y }) }

// Result is the outcome of one run.
type Result struct {
	Counters
	// IPC and MPKI are the whole run's; a sampled run reports the
	// interval-mean IPC estimate and no MPKI.
	IPC, MPKI float64

	// The final architectural state: the core's, or the functional
	// walker's when the core did not run to the end.
	Halted     bool
	Checksum   uint64
	ChecksumOK bool

	// FFInsts counts instructions run at functional speed: the
	// fast-forward prefix, or all a sampled run did not measure.
	FFInsts uint64
	// Ckpt is a fast-forward run's ckpt.Served: "miss", "hit" (booted
	// from the store's saved checkpoint) or "cached" (the store kept the
	// boot state in memory).
	Ckpt string

	// Core is set for full and fast-forward runs that reached the core;
	// Estimate for sampled runs.
	Core     *pipeline.Core
	Estimate *ckpt.Estimate
}

// Run runs s. A configuration Check refuses, and a checksum mismatch, are
// errors; the mismatch returns the result with it.
func Run(s Spec) (Result, error) {
	cfg := s.Config
	if err := Check(cfg); err != nil {
		return Result{}, err
	}
	if s.Sample != "" {
		if s.FastForward > 0 {
			return Result{}, fmt.Errorf("sample and fast-forward are mutually exclusive")
		}
		return sampled(s, cfg)
	}
	var res Result
	if s.FastForward > 0 {
		bs, how, err := ckpt.PrepareServed(s.Ckpt, s.Program, ckpt.ProgramDigest(s.Program), s.FastForward, s.Warmup)
		if err != nil {
			return Result{}, fmt.Errorf("fast-forward: %w", err)
		}
		res.FFInsts, res.Ckpt = bs.FFInsts, how.String()
		if bs.Boot.Halted {
			// Nothing is left for the core; the functional final state
			// still carries the checksum.
			return res.check(s, true, bs.Boot.X[workloads.CheckReg])
		}
		cfg.Boot, cfg.BootWarmup = bs.Boot, bs.Warmup
	}
	core := pipeline.New(cfg, s.Program)
	if err := core.Run(); err != nil {
		return res, err
	}
	st := core.Stats()
	res.Counters = read(core)
	res.IPC, res.MPKI = st.IPC(), st.MPKI()
	res.Core = core
	x, _ := core.ArchRegs()
	return res.check(s, core.Halted(), x[workloads.CheckReg])
}

// sampled runs s interval-sampled: one functional walker runs the whole
// program while short detailed intervals boot from its snapshots.
func sampled(s Spec, cfg pipeline.Config) (Result, error) {
	plan, err := ckpt.ParsePlan(s.Sample)
	if err != nil {
		return Result{}, err
	}
	workers := s.SampleWorkers
	if workers == 0 || cfg.Observer != nil {
		// Every interval core shares cfg's observer, and observers are
		// not safe for concurrent use.
		workers = 1
	}
	var (
		mu  sync.Mutex
		res Result
	)
	interval := func(bs *ckpt.BootState, warmup, detail uint64) (ckpt.IntervalStats, error) {
		icfg := cfg
		icfg.Boot, icfg.BootWarmup = bs.Boot, bs.Warmup
		icfg.MaxInsts = warmup + detail
		core := pipeline.New(icfg, s.Program)
		// The warmup instructions run at full fidelity but unmeasured: they
		// absorb pipeline fill and residual cold misses.
		if err := core.RunTo(warmup); err != nil {
			return ckpt.IntervalStats{}, err
		}
		base := read(core)
		if err := core.RunTo(warmup + detail); err != nil {
			return ckpt.IntervalStats{}, err
		}
		d := read(core)
		d.sub(base)
		// Sums do not depend on order, so the mutex alone keeps them
		// deterministic under concurrent intervals.
		mu.Lock()
		res.add(d)
		mu.Unlock()
		return ckpt.IntervalStats{Cycles: d.Cycles, Insts: d.Insts, ReuseHits: d.Reuses}, nil
	}
	est, final, err := ckpt.SampleN(s.Program, plan, cfg.MaxInsts, workers, interval)
	if err != nil {
		return Result{}, err
	}
	res.IPC = est.IPCMean
	res.FFInsts = est.FFInsts
	res.Estimate = est
	return res.check(s, final.Halted, final.X[workloads.CheckReg])
}

// check applies the checksum rule: a program that halted must leave
// s.Want in workloads.CheckReg.
func (r Result) check(s Spec, halted bool, checksum uint64) (Result, error) {
	r.Halted, r.Checksum = halted, checksum
	r.ChecksumOK = !s.Check || !halted || checksum == s.Want
	if !r.ChecksumOK {
		return r, fmt.Errorf("checksum %#x, want %#x", checksum, s.Want)
	}
	return r, nil
}
