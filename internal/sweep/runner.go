package sweep

import (
	"fmt"
	"sync"

	"repro/internal/area"
	"repro/internal/ckpt"
	"repro/internal/pipeline"
	"repro/internal/regfile"
	"repro/internal/workloads"
)

// JobResult is the machine-readable outcome of one job: the headline
// numbers plus the renaming counters the paper's figures aggregate. Fields
// are exact counters (or derived ratios of them) so results are
// bit-reproducible and safe to cache.
type JobResult struct {
	Cycles     uint64  `json:"cycles"`
	Insts      uint64  `json:"instructions"`
	MicroOps   uint64  `json:"micro_ops,omitempty"`
	IPC        float64 `json:"ipc"`
	MPKI       float64 `json:"mpki"`
	ChecksumOK bool    `json:"checksum_ok"`

	Allocations uint64    `json:"allocations"`
	Reuses      uint64    `json:"reuses,omitempty"`
	ReusesByVer [4]uint64 `json:"reuses_by_ver,omitempty"`
	Repairs     uint64    `json:"repairs,omitempty"`

	// Predictor outcome classification (int + FP files summed), Figure 12.
	PredReuseRight  uint64 `json:"pred_reuse_right,omitempty"`
	PredReuseWrong  uint64 `json:"pred_reuse_wrong,omitempty"`
	PredNormalRight uint64 `json:"pred_normal_right,omitempty"`
	PredNormalWrong uint64 `json:"pred_normal_wrong,omitempty"`

	StallNoReg uint64 `json:"stall_no_reg,omitempty"`
	StallROB   uint64 `json:"stall_rob,omitempty"`
	StallIQ    uint64 `json:"stall_iq,omitempty"`

	// FFInsts is the number of instructions executed at functional speed
	// instead of in the detailed core (fast-forward prefix, or skipped
	// regions of a sampled run). 0 for fully detailed jobs.
	FFInsts uint64 `json:"ff_insts,omitempty"`
	// Sampled carries the statistical estimates of an interval-sampled
	// job; nil for full-fidelity jobs. For sampled jobs the headline
	// Cycles/Insts/counter fields cover only the measured detail
	// intervals, while Sampled reports the per-interval estimates and
	// their standard errors.
	Sampled *SampleSummary `json:"sampled,omitempty"`
}

// SampleSummary is the JobResult face of a ckpt.Estimate.
type SampleSummary struct {
	Plan        string  `json:"plan"`
	Samples     int     `json:"samples"`
	IPCMean     float64 `json:"ipc_mean"`
	IPCStdErr   float64 `json:"ipc_stderr"`
	ReuseMean   float64 `json:"reuse_rate_mean,omitempty"`
	ReuseStdErr float64 `json:"reuse_rate_stderr,omitempty"`
	TotalInsts  uint64  `json:"total_insts"`
	DetailInsts uint64  `json:"detail_insts"`
	Coverage    float64 `json:"coverage"`
}

// jobConfig derives the pipeline configuration for a job, mirroring the
// conventions of the Figure 10/11 sweep: for Size > 0 the workload's
// pressured register file (workloads.FPHeavy) is swept — uniform for the
// baseline scheme, the equal-area hybrid of Table III for reuse/early —
// while the other file stays ample at 128; Size 0 keeps the scheme's
// default files.
func jobConfig(j Job) (pipeline.Config, error) {
	sch, err := pipeline.ParseScheme(j.Scheme)
	if err != nil {
		return pipeline.Config{}, err
	}
	cfg := pipeline.DefaultConfig(sch)
	if j.Size > 0 {
		ample := regfile.Uniform(128, 0)
		var swept regfile.BankSizes
		if sch == pipeline.Baseline {
			swept = regfile.Uniform(j.Size, 0)
		} else {
			swept = area.EqualAreaConfig(j.Size, 64)
		}
		if workloads.FPHeavy(j.Workload) {
			cfg.FPRegs, cfg.IntRegs = swept, ample
		} else {
			cfg.IntRegs, cfg.FPRegs = swept, ample
		}
	}
	if j.ReuseDepth > 0 {
		cfg.ReuseCfg.MaxVersions = uint8(j.ReuseDepth)
	}
	cfg.ReuseCfg.SpeculativeReuse = !j.DisableSpeculativeReuse
	cfg.MaxInsts = j.MaxInsts
	cfg.MaxCycles = 1 << 36
	return cfg, nil
}

// Usage reports how one execution used the checkpoint store: Ckpt is
// "hit" or "miss" for a fast-forward job and "" otherwise, and FFInsts
// counts the instructions it ran at functional speed (on a hit only the
// warmup replay ran; the skip itself was free).
type Usage struct {
	Ckpt    string
	FFInsts uint64
}

// Execute runs one job to completion on the calling goroutine and returns
// its result and how it used store. The simulation is deterministic: equal
// jobs produce bit-identical results, which is what makes the
// content-addressed cache sound. A nil store fast-forwards from reset each
// time (still deterministic, just slower). The detailed intervals of a
// sampling-mode job fan across up to sampleWorkers goroutines (ckpt.SampleN);
// the result is bit-identical for every worker count, which is why the
// worker count is an execution option and never part of the job's cache
// key. Non-sampled jobs ignore it.
func Execute(j Job, store *ckpt.Store, sampleWorkers int) (JobResult, Usage, error) {
	w, ok := workloads.ByName(j.Workload, j.Scale)
	if !ok {
		return JobResult{}, Usage{}, fmt.Errorf("unknown workload %q", j.Workload)
	}
	if j.Sample != "" {
		return executeSampled(j, w, sampleWorkers)
	}

	cfg, err := jobConfig(j)
	if err != nil {
		return JobResult{}, Usage{}, err
	}
	p := w.Program()
	var (
		ffInsts uint64
		use     Usage
	)
	if j.FastForward > 0 {
		bs, hit, err := ckpt.Prepare(store, p, ckpt.ProgramDigest(p), j.FastForward, j.Warmup)
		if err != nil {
			return JobResult{}, Usage{}, fmt.Errorf("%s/%s: %w", j.Workload, j.Scheme, err)
		}
		use = Usage{Ckpt: "miss", FFInsts: bs.FFInsts}
		if hit {
			use = Usage{Ckpt: "hit", FFInsts: j.Warmup}
		}
		ffInsts = bs.FFInsts
		if bs.Boot.Halted {
			// The program finished inside the fast-forward prefix; there
			// is nothing to simulate in detail, but correctness is still
			// checked against the functional final state.
			res := JobResult{ChecksumOK: bs.Boot.X[workloads.CheckReg] == w.Want, FFInsts: ffInsts}
			if !res.ChecksumOK {
				return res, use, fmt.Errorf("%s/%s: checksum %#x, want %#x",
					j.Workload, j.Scheme, bs.Boot.X[workloads.CheckReg], w.Want)
			}
			return res, use, nil
		}
		cfg.Boot = bs.Boot
		cfg.BootWarmup = bs.Warmup
	}

	core := pipeline.New(cfg, p)
	if err := core.Run(); err != nil {
		return JobResult{}, use, fmt.Errorf("%s/%s: %w", j.Workload, j.Scheme, err)
	}
	x, _ := core.ArchRegs()
	res := resultFrom(core)
	res.ChecksumOK = !core.Halted() || x[workloads.CheckReg] == w.Want
	res.FFInsts = ffInsts
	if !res.ChecksumOK {
		return res, use, fmt.Errorf("%s/%s: checksum %#x, want %#x", j.Workload, j.Scheme, x[workloads.CheckReg], w.Want)
	}
	return res, use, nil
}

// resultFrom collects the counter fields shared by every execution mode.
func resultFrom(core *pipeline.Core) JobResult {
	st := core.Stats()
	ri, rf := core.RenStats(0), core.RenStats(1)
	res := JobResult{
		Cycles:   st.Cycles,
		Insts:    st.Committed,
		MicroOps: st.MicroOps,
		IPC:      st.IPC(),
		MPKI:     st.MPKI(),

		Allocations: ri.Allocations + rf.Allocations,
		Reuses:      ri.TotalReuses() + rf.TotalReuses(),
		Repairs:     ri.Repairs + rf.Repairs,

		PredReuseRight:  ri.PredReuseRight + rf.PredReuseRight,
		PredReuseWrong:  ri.PredReuseWrong + rf.PredReuseWrong,
		PredNormalRight: ri.PredNormalRight + rf.PredNormalRight,
		PredNormalWrong: ri.PredNormalWrong + rf.PredNormalWrong,

		StallNoReg: st.StallNoRegInt + st.StallNoRegFP,
		StallROB:   st.StallROB,
		StallIQ:    st.StallIQ,
	}
	for v := 1; v < len(res.ReusesByVer); v++ {
		res.ReusesByVer[v] = ri.ReusesByVer[v] + rf.ReusesByVer[v]
	}
	return res
}

// executeSampled runs a job in interval-sampling mode: one functional
// machine walks the whole program while short detailed intervals are booted
// from in-memory snapshots along the way. The headline counters accumulate
// over the detail intervals; the estimates (with standard errors) ride in
// res.Sampled; the checksum is validated on the functional final state, so
// a sampled run still proves architectural correctness end to end.
func executeSampled(j Job, w workloads.Workload, workers int) (JobResult, Usage, error) {
	plan, err := ckpt.ParsePlan(j.Sample)
	if err != nil {
		return JobResult{}, Usage{}, fmt.Errorf("%s/%s: %w", j.Workload, j.Scheme, err)
	}
	if workers == 0 {
		workers = 1
	}
	p := w.Program()
	var accMu sync.Mutex
	var acc JobResult
	run := func(bs *ckpt.BootState, warmup, detail uint64) (ckpt.IntervalStats, error) {
		cfg, err := jobConfig(j)
		if err != nil {
			return ckpt.IntervalStats{}, err
		}
		cfg.Boot = bs.Boot
		cfg.BootWarmup = bs.Warmup
		cfg.MaxInsts = warmup + detail
		core := pipeline.New(cfg, p)
		// The first warmup instructions run at full fidelity but are excluded
		// from measurement: they absorb pipeline fill and residual cold
		// misses, so the measured delta reflects steady-state behavior.
		if err := core.RunTo(warmup); err != nil {
			return ckpt.IntervalStats{}, err
		}
		base := resultFrom(core)
		if err := core.RunTo(warmup + detail); err != nil {
			return ckpt.IntervalStats{}, err
		}
		r := counterDelta(resultFrom(core), base)
		// Counter sums are order-independent; the mutex alone keeps the
		// aggregate deterministic under concurrent intervals.
		accMu.Lock()
		accumulate(&acc, &r)
		accMu.Unlock()
		return ckpt.IntervalStats{Cycles: r.Cycles, Insts: r.Insts, ReuseHits: r.Reuses}, nil
	}
	est, final, err := ckpt.SampleN(p, plan, j.MaxInsts, workers, run)
	if err != nil {
		return JobResult{}, Usage{}, fmt.Errorf("%s/%s: %w", j.Workload, j.Scheme, err)
	}
	use := Usage{FFInsts: est.FFInsts}

	res := acc
	res.IPC = est.IPCMean
	res.FFInsts = est.FFInsts
	res.ChecksumOK = !final.Halted || final.X[workloads.CheckReg] == w.Want
	res.Sampled = &SampleSummary{
		Plan:        plan.String(),
		Samples:     est.Samples,
		IPCMean:     est.IPCMean,
		IPCStdErr:   est.IPCStdErr,
		ReuseMean:   est.ReuseMean,
		ReuseStdErr: est.ReuseStdErr,
		TotalInsts:  est.TotalInsts,
		DetailInsts: est.DetailInsts,
		Coverage:    est.CoverageRatio(),
	}
	if !res.ChecksumOK {
		return res, use, fmt.Errorf("%s/%s: sampled checksum %#x, want %#x",
			j.Workload, j.Scheme, final.X[workloads.CheckReg], w.Want)
	}
	return res, use, nil
}

// counterDelta subtracts base's counter fields from full's — the measured
// region of a phased run. Derived ratios (IPC, MPKI) are left zero; sampled
// mode reports those as interval estimates instead.
func counterDelta(full, base JobResult) JobResult {
	d := JobResult{
		Cycles:          full.Cycles - base.Cycles,
		Insts:           full.Insts - base.Insts,
		MicroOps:        full.MicroOps - base.MicroOps,
		Allocations:     full.Allocations - base.Allocations,
		Reuses:          full.Reuses - base.Reuses,
		Repairs:         full.Repairs - base.Repairs,
		PredReuseRight:  full.PredReuseRight - base.PredReuseRight,
		PredReuseWrong:  full.PredReuseWrong - base.PredReuseWrong,
		PredNormalRight: full.PredNormalRight - base.PredNormalRight,
		PredNormalWrong: full.PredNormalWrong - base.PredNormalWrong,
		StallNoReg:      full.StallNoReg - base.StallNoReg,
		StallROB:        full.StallROB - base.StallROB,
		StallIQ:         full.StallIQ - base.StallIQ,
	}
	for v := 1; v < len(d.ReusesByVer); v++ {
		d.ReusesByVer[v] = full.ReusesByVer[v] - base.ReusesByVer[v]
	}
	return d
}

// accumulate sums r's counter fields into acc (the sampled-mode aggregate).
func accumulate(acc, r *JobResult) {
	acc.Cycles += r.Cycles
	acc.Insts += r.Insts
	acc.MicroOps += r.MicroOps
	acc.Allocations += r.Allocations
	acc.Reuses += r.Reuses
	acc.Repairs += r.Repairs
	acc.PredReuseRight += r.PredReuseRight
	acc.PredReuseWrong += r.PredReuseWrong
	acc.PredNormalRight += r.PredNormalRight
	acc.PredNormalWrong += r.PredNormalWrong
	acc.StallNoReg += r.StallNoReg
	acc.StallROB += r.StallROB
	acc.StallIQ += r.StallIQ
	for v := 1; v < len(acc.ReusesByVer); v++ {
		acc.ReusesByVer[v] += r.ReusesByVer[v]
	}
}
