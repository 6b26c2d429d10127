// Package sweep is the design-space-exploration engine: it expands a
// declarative SweepSpec into a deterministic job grid, executes jobs
// (Execute), deduplicates work through a content-addressed result cache,
// and renders the byte-reproducible results.json artifact. Run is the
// in-process library runner the paper figures (SpeedupSweep,
// PredictorBreakdown) call; the service job lifecycle — HTTP API,
// journaling, resume, retries and timeouts — lives in internal/fabric,
// which cmd/sweepd serves.
package sweep

import (
	"crypto/sha256"
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/pipeline"
	"repro/internal/workloads"
)

// Spec declares a sweep: the cross product of workloads, schemes, and
// baseline register-file sizes at one scale, with optional reuse-scheme
// ablation knobs. The zero values of the optional fields select the paper's
// defaults (scale 4, the scheme's default register file).
//
//repro:schema sweep-spec v1
type Spec struct {
	// Name labels the sweep in status output; it does not affect job
	// identity or caching.
	Name string `json:"name,omitempty"`
	// Workloads to run; empty = every workload.
	Workloads []string `json:"workloads,omitempty"`
	// Schemes by name: "baseline" | "reuse" | "early" (see ParseScheme).
	Schemes []string `json:"schemes"`
	// Scale is the workload scale (1 = small/test, 4 = reference; 0 = 4).
	Scale int `json:"scale,omitempty"`
	// Sizes are baseline-equivalent register-file sizes, each applied by
	// sim.Swept exactly as the Figure 10/11 sweep does. A swept file needs
	// more than 32 registers: sizes above 32 for the baseline, above 34
	// for reuse/early. Empty = [0], meaning the scheme's default register
	// file.
	Sizes []int `json:"sizes,omitempty"`
	// ReuseDepth caps reuse-chain length (0 = the paper's 3).
	ReuseDepth int `json:"reuse_depth,omitempty"`
	// DisableSpeculativeReuse keeps only guaranteed reuse (§IV-D ablation).
	DisableSpeculativeReuse bool `json:"disable_speculative_reuse,omitempty"`
	// MaxInsts stops each simulation after that many committed
	// instructions (0 = run to HALT).
	MaxInsts uint64 `json:"max_insts,omitempty"`
	// FastForward skips the first N instructions of every job at
	// functional speed (internal/ckpt), booting the detailed core from a
	// shared per-workload checkpoint. Timing statistics then cover only
	// the detailed region; architectural correctness is still checked end
	// to end. 0 = detailed from reset (bit-identical to previous
	// behavior).
	FastForward uint64 `json:"fast_forward,omitempty"`
	// Warmup functionally replays the last N pre-boot instructions into
	// the caches and branch predictor before detailed simulation (only
	// meaningful with FastForward or Sample).
	Warmup uint64 `json:"warmup,omitempty"`
	// Sample, in the form "warmup:detail:interval", switches jobs to
	// SMARTS-style interval sampling: alternating functional fast-forward
	// with detailed intervals, reporting IPC/reuse-rate estimates with
	// standard errors. Mutually exclusive with FastForward.
	Sample string `json:"sample,omitempty"`
	// SampleWorkers fans each sampled job's detailed intervals across up
	// to N goroutines (0 or 1 = serial, <0 = GOMAXPROCS). It is an
	// execution option, not part of the simulated configuration: results
	// are bit-identical for every value, so it is deliberately NOT copied
	// into Job and therefore never enters the cache key.
	SampleWorkers int `json:"sample_workers,omitempty"`
}

// Job is one fully-specified simulation point. Its field values — and
// nothing else — determine the cache key, so two jobs with equal fields are
// interchangeable across sweeps and processes.
//
//repro:schema sweep-job v1
type Job struct {
	Workload string `json:"workload"`
	Scheme   string `json:"scheme"`
	Scale    int    `json:"scale"`
	// Size is the baseline-equivalent register-file size swept on the
	// workload's pressured side; 0 = the scheme's default file.
	Size                    int    `json:"size,omitempty"`
	ReuseDepth              int    `json:"reuse_depth,omitempty"`
	DisableSpeculativeReuse bool   `json:"disable_speculative_reuse,omitempty"`
	MaxInsts                uint64 `json:"max_insts,omitempty"`
	FastForward             uint64 `json:"fast_forward,omitempty"`
	Warmup                  uint64 `json:"warmup,omitempty"`
	Sample                  string `json:"sample,omitempty"`
}

// normalized fills the spec's defaults.
func (s Spec) normalized() Spec {
	if s.Scale == 0 {
		s.Scale = 4
	}
	if len(s.Workloads) == 0 {
		s.Workloads = workloads.Names()
	}
	if len(s.Sizes) == 0 {
		s.Sizes = []int{0}
	}
	return s
}

// Jobs validates the spec and expands it deterministically: workload-major,
// then size, then scheme, each in declaration order. Index arithmetic is
// stable: job (w, s, c) sits at ((w*len(Sizes))+s)*len(Schemes)+c.
// keys[i] is jobs[i].Key(): the expansion looks each workload's program
// digest up once, derives every key once for its duplicate check and hands
// them back, so callers never derive them again.
func (s Spec) Jobs() (jobs []Job, keys []string, err error) {
	s = s.normalized()
	if len(s.Schemes) == 0 {
		return nil, nil, fmt.Errorf("sweep: spec has no schemes")
	}
	if s.Scale < 1 {
		return nil, nil, fmt.Errorf("sweep: bad scale %d", s.Scale)
	}
	for _, name := range s.Schemes {
		if _, err := pipeline.ParseScheme(name); err != nil {
			return nil, nil, fmt.Errorf("sweep: %w", err)
		}
	}
	progs := make([][sha256.Size]byte, len(s.Workloads))
	for i, n := range s.Workloads {
		d, ok := programDigest(n, s.Scale)
		if !ok {
			return nil, nil, fmt.Errorf("sweep: unknown workload %q", n)
		}
		progs[i] = d
	}
	for _, sz := range s.Sizes {
		if sz < 0 {
			return nil, nil, fmt.Errorf("sweep: negative size %d", sz)
		}
	}
	if s.Sample != "" {
		if s.FastForward > 0 {
			return nil, nil, fmt.Errorf("sweep: sample and fast_forward are mutually exclusive")
		}
		if _, err := ckpt.ParsePlan(s.Sample); err != nil {
			return nil, nil, fmt.Errorf("sweep: %w", err)
		}
	}
	if s.Warmup > 0 && s.FastForward > 0 && s.Warmup > s.FastForward {
		return nil, nil, fmt.Errorf("sweep: warmup %d exceeds fast_forward %d", s.Warmup, s.FastForward)
	}
	n := len(s.Workloads) * len(s.Sizes) * len(s.Schemes)
	jobs = make([]Job, 0, n)
	keys = make([]string, 0, n)
	seen := make(map[string]int, n)
	for wi, w := range s.Workloads {
		for _, sz := range s.Sizes {
			for _, sch := range s.Schemes {
				j := Job{
					Workload:                w,
					Scheme:                  sch,
					Scale:                   s.Scale,
					Size:                    sz,
					ReuseDepth:              s.ReuseDepth,
					DisableSpeculativeReuse: s.DisableSpeculativeReuse,
					MaxInsts:                s.MaxInsts,
					FastForward:             s.FastForward,
					Warmup:                  s.Warmup,
					Sample:                  s.Sample,
				}
				// A size or depth sim.Check refuses fails the spec
				// before anything runs; the depth is checked before the
				// baseline normalization below drops it.
				if _, err := jobConfig(j); err != nil {
					return nil, nil, fmt.Errorf("sweep: %s/%s size %d: %w", w, sch, sz, err)
				}
				if sch == "baseline" {
					// The reuse knobs are no-ops for the baseline renamer;
					// normalizing them keeps ablation sweeps hitting the
					// same cached baseline runs.
					j.ReuseDepth = 0
					j.DisableSpeculativeReuse = false
				}
				k := keyAt(j, progs[wi], SchemaVersion)
				if prev, dup := seen[k]; dup {
					return nil, nil, fmt.Errorf("sweep: duplicate job %d and %d (%s/%s size %d)", prev, len(jobs), w, sch, sz)
				}
				seen[k] = len(jobs)
				jobs = append(jobs, j)
				keys = append(keys, k)
			}
		}
	}
	return jobs, keys, nil
}
