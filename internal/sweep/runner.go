package sweep

import (
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// JobResult is the machine-readable outcome of one job: the headline
// numbers plus the renaming counters the paper's figures aggregate. Fields
// are exact counters (or derived ratios of them) so results are
// bit-reproducible and safe to cache.
//
//repro:schema sweep-job-result v1
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

// SampleSummary is the face of a ckpt.Estimate in a JobResult and in the
// public regreuse.Result: sample means across the measured detail
// intervals with the standard error of each mean.
//
//repro:schema sweep-sample-summary v1
type SampleSummary struct {
	Plan        string  `json:"plan"`    // "warmup:detail:interval"
	Samples     int     `json:"samples"` // measured intervals
	IPCMean     float64 `json:"ipc_mean"`
	IPCStdErr   float64 `json:"ipc_stderr"`
	ReuseMean   float64 `json:"reuse_rate_mean,omitempty"` // reuse hits per committed instruction
	ReuseStdErr float64 `json:"reuse_rate_stderr,omitempty"`
	TotalInsts  uint64  `json:"total_insts"`  // functionally executed end to end
	DetailInsts uint64  `json:"detail_insts"` // of those, measured in detail
	Coverage    float64 `json:"coverage"`
}

// jobConfig derives the pipeline configuration for a job: Size > 0 sweeps
// the workload's pressured file by sim.Swept, the Figure 10/11 convention;
// Size 0 keeps the scheme's default files. A configuration sim.Check
// refuses is an error.
func jobConfig(j Job) (pipeline.Config, error) {
	sch, err := pipeline.ParseScheme(j.Scheme)
	if err != nil {
		return pipeline.Config{}, err
	}
	cfg := pipeline.DefaultConfig(sch)
	if j.Size > 0 {
		sim.Swept(&cfg, j.Workload, j.Size)
	}
	if j.ReuseDepth != 0 {
		cfg.ReuseCfg.MaxVersions = j.ReuseDepth
	}
	cfg.ReuseCfg.SpeculativeReuse = !j.DisableSpeculativeReuse
	cfg.MaxInsts = j.MaxInsts
	return cfg, sim.Check(cfg)
}

// Summarize is the SampleSummary of est; nil for a run that was not
// sampled.
func Summarize(est *ckpt.Estimate) *SampleSummary {
	if est == nil {
		return nil
	}
	return &SampleSummary{
		Plan:        est.Plan.String(),
		Samples:     est.Samples,
		IPCMean:     est.IPCMean,
		IPCStdErr:   est.IPCStdErr,
		ReuseMean:   est.ReuseMean,
		ReuseStdErr: est.ReuseStdErr,
		TotalInsts:  est.TotalInsts,
		DetailInsts: est.DetailInsts,
		Coverage:    est.CoverageRatio(),
	}
}

// Usage reports how one execution used the checkpoint store: Ckpt is
// "hit" or "miss" for a fast-forward job and "" otherwise, and FFInsts
// counts the instructions it ran at functional speed. On a hit served from
// the store's saved checkpoint only the warmup capture ran; on a hit the
// store kept in memory none did.
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
	cfg, err := jobConfig(j)
	if err != nil {
		return JobResult{}, Usage{}, err
	}
	out, err := sim.Run(sim.Spec{
		Program: w.Program(), Config: cfg, Want: w.Want, Check: true,
		FastForward: j.FastForward, Warmup: j.Warmup, Ckpt: store,
		Sample: j.Sample, SampleWorkers: sampleWorkers,
	})
	use := Usage{Ckpt: out.Ckpt, FFInsts: out.FFInsts}
	switch out.Ckpt {
	case "hit":
		// Only the warmup capture ran; the skip itself was free.
		use.FFInsts = j.Warmup
	case "cached":
		use.Ckpt, use.FFInsts = "hit", 0
	}
	res := JobResult{
		Cycles:     out.Cycles,
		Insts:      out.Insts,
		MicroOps:   out.MicroOps,
		IPC:        out.IPC,
		MPKI:       out.MPKI,
		ChecksumOK: out.ChecksumOK,

		Allocations: out.Allocations,
		Reuses:      out.Reuses,
		ReusesByVer: out.ReusesByVer,
		Repairs:     out.Repairs,

		PredReuseRight:  out.PredReuseRight,
		PredReuseWrong:  out.PredReuseWrong,
		PredNormalRight: out.PredNormalRight,
		PredNormalWrong: out.PredNormalWrong,

		StallNoReg: out.StallNoReg,
		StallROB:   out.StallROB,
		StallIQ:    out.StallIQ,

		FFInsts: out.FFInsts,
		Sampled: Summarize(out.Estimate),
	}
	if err != nil {
		return res, use, fmt.Errorf("%s/%s: %w", j.Workload, j.Scheme, err)
	}
	return res, use, nil
}
