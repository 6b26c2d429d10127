package ckpt

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/emu"
	"repro/internal/par"
	"repro/internal/prog"
)

// Plan describes SMARTS-style interval sampling: out of every Interval
// instructions, the first Interval-2*Warmup-Detail run at functional speed,
// the next Warmup are replayed functionally into the caches and branch
// predictor, the next Warmup run detailed but unmeasured (filling the
// pipeline and finishing the warmup at full fidelity), and the final Detail
// are measured. Without the detailed warmup the estimate carries a large
// cold-start bias — every interval would pay pipeline fill and residual
// cold misses inside its measured region.
type Plan struct {
	Warmup   uint64
	Detail   uint64
	Interval uint64
}

// ParsePlan parses the CLI form "warmup:detail:interval".
func ParsePlan(s string) (Plan, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return Plan{}, fmt.Errorf("sample plan %q: want warmup:detail:interval", s)
	}
	var v [3]uint64
	for i, p := range parts {
		n, err := strconv.ParseUint(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return Plan{}, fmt.Errorf("sample plan %q: %v", s, err)
		}
		v[i] = n
	}
	p := Plan{Warmup: v[0], Detail: v[1], Interval: v[2]}
	return p, p.Validate()
}

// Validate rejects degenerate plans.
func (p Plan) Validate() error {
	if p.Detail == 0 {
		return fmt.Errorf("sample plan: detail interval must be > 0")
	}
	if p.Interval < 2*p.Warmup+p.Detail {
		return fmt.Errorf("sample plan: interval %d < 2*warmup %d + detail %d",
			p.Interval, p.Warmup, p.Detail)
	}
	return nil
}

// String renders the CLI form.
func (p Plan) String() string {
	return fmt.Sprintf("%d:%d:%d", p.Warmup, p.Detail, p.Interval)
}

// IntervalStats is what one detailed interval reports back to the sampler.
type IntervalStats struct {
	Cycles    uint64
	Insts     uint64
	ReuseHits uint64 // physical-register reuse events (0 for baseline scheme)
}

// RunDetail boots a detailed core from the given state, simulates warmup
// committed instructions unmeasured, then detail further instructions, and
// reports only the measured region's timing (the stats delta across the
// boundary). The one implementation lives in internal/sim, above ckpt, so
// this package stays free of pipeline dependencies.
type RunDetail func(bs *BootState, warmup, detail uint64) (IntervalStats, error)

// Estimate is a sampled run's result: population statistics across the
// measured intervals, with the standard error of the mean quantifying how
// far the estimate may sit from the full-fidelity value.
type Estimate struct {
	Plan    Plan
	Samples int

	IPCMean   float64
	IPCStdErr float64

	// ReuseRate is reuse hits per committed instruction in the measured
	// intervals — the paper's reuse-rate metric, estimated per sample.
	ReuseMean   float64
	ReuseStdErr float64

	// Instruction accounting over the whole program.
	TotalInsts  uint64 // functionally executed end to end
	DetailInsts uint64 // of those, simulated in measured detail intervals
	FFInsts     uint64 // the rest: functional skip plus (un)measured warmups
}

// CoverageRatio is the fraction of instructions that ran in measured detail.
func (e *Estimate) CoverageRatio() float64 {
	if e.TotalInsts == 0 {
		return 0
	}
	return float64(e.DetailInsts) / float64(e.TotalInsts)
}

// intervalJob is one detailed interval captured by the functional walker and
// waiting for simulation: the boot state plus its clamped warmup/detail
// instruction budgets.
type intervalJob struct {
	bs     *BootState
	warm   uint64
	detail uint64
}

// SampleN runs program p end to end, alternating functional fast-forward
// with detailed intervals per plan, up to maxInsts functional instructions
// (0 = to halt). It returns the estimate plus the final architectural
// snapshot of the complete functional execution, which callers use for
// checksum validation — sampling never weakens the correctness check. A
// program too short for the plan to measure one interval is an error.
//
// One functional machine walks the whole program; each period it skips
// Interval-2*Warmup-Detail instructions with StepN, captures the next Warmup
// commits as the detailed core's functional warmup trace, snapshots, and
// hands both to run, which simulates Warmup more instructions unmeasured and
// then the measured Detail. The detailed region is then re-executed
// functionally (StepN again) so the walker stays the single source of
// architectural truth.
//
// The detailed intervals fan out across up to `workers` goroutines (<= 0
// selects GOMAXPROCS; 1 runs them inline, in order). The walker is
// inherently serial, so parallelism comes from two-phase batching: the
// walker captures a batch of interval BootStates (each owning an
// independent memory snapshot), the batch is fanned out via
// par.ForEachCtx, and the results are merged in interval-index order. Because
// the per-interval statistics are accumulated in that fixed order no matter
// which worker finishes first, the estimate is bit-identical for every worker
// count (asserted by TestSampleNDeterminism).
//
// Batches hold at most 2*workers intervals so at most that many memory
// snapshots are alive at once; run must be safe for concurrent calls when
// workers > 1 (each call gets its own BootState).
func SampleN(p *prog.Program, plan Plan, maxInsts uint64, workers int, run RunDetail) (*Estimate, *emu.Snapshot, error) {
	if err := plan.Validate(); err != nil {
		return nil, nil, err
	}
	if maxInsts == 0 {
		maxInsts = math.MaxUint64
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	skip := plan.Interval - 2*plan.Warmup - plan.Detail

	s := emu.New(p)
	est := &Estimate{Plan: plan}
	var ipcs, reuses []float64

	batch := make([]intervalJob, 0, 2*workers)
	// flush simulates every captured interval (concurrently when workers > 1)
	// and folds the results into the estimate in interval-index order. Errors
	// are reported for the earliest failing interval, matching what a serial
	// run would have surfaced first.
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		stats := make([]IntervalStats, len(batch))
		errs := make([]error, len(batch))
		_ = par.ForEachCtx(context.Background(), len(batch), workers, func(i int) error {
			stats[i], errs[i] = run(batch[i].bs, batch[i].warm, batch[i].detail)
			return errs[i]
		})
		for i := range batch {
			if errs[i] != nil {
				return fmt.Errorf("ckpt: detail interval at inst %d: %w", batch[i].bs.Boot.InstCount, errs[i])
			}
			if st := stats[i]; st.Cycles > 0 && st.Insts > 0 {
				ipcs = append(ipcs, float64(st.Insts)/float64(st.Cycles))
				reuses = append(reuses, float64(st.ReuseHits)/float64(st.Insts))
				est.DetailInsts += st.Insts
			}
		}
		batch = batch[:0]
		return nil
	}

	for !s.Halted() && s.InstCount() < maxInsts {
		if _, err := s.StepN(minU64(skip, maxInsts-s.InstCount())); err != nil {
			return nil, nil, fmt.Errorf("ckpt: sample fast-forward: %w", err)
		}
		if s.Halted() || s.InstCount() >= maxInsts {
			break
		}

		bs := &BootState{}
		if plan.Warmup > 0 {
			var err error
			if bs.Warmup, err = captureWarmup(s, minU64(plan.Warmup, maxInsts-s.InstCount())); err != nil {
				return nil, nil, fmt.Errorf("ckpt: sample warmup: %w", err)
			}
			if s.Halted() || s.InstCount() >= maxInsts {
				break
			}
		}
		bs.FFInsts = s.InstCount()
		bs.Boot = s.Snapshot()

		warm := minU64(plan.Warmup, maxInsts-s.InstCount())
		detail := minU64(plan.Detail, maxInsts-s.InstCount()-warm)
		if detail == 0 {
			// The budget ends inside the detailed warmup; nothing measurable
			// remains, so just finish the walker functionally.
			if _, err := s.StepN(warm); err != nil {
				return nil, nil, fmt.Errorf("ckpt: sample advance: %w", err)
			}
			break
		}
		batch = append(batch, intervalJob{bs: bs, warm: warm, detail: detail})
		if len(batch) == cap(batch) {
			if err := flush(); err != nil {
				return nil, nil, err
			}
		}

		// Advance the functional walker through the detailed region
		// (unmeasured warmup + measured detail).
		if _, err := s.StepN(warm + detail); err != nil {
			return nil, nil, fmt.Errorf("ckpt: sample advance: %w", err)
		}
	}
	if err := flush(); err != nil {
		return nil, nil, err
	}
	if len(ipcs) == 0 {
		return nil, nil, fmt.Errorf("ckpt: sample plan %s measured no interval in %d instructions", plan, s.InstCount())
	}

	est.Samples = len(ipcs)
	est.TotalInsts = s.InstCount()
	est.FFInsts = est.TotalInsts - est.DetailInsts
	est.IPCMean, est.IPCStdErr = meanStdErr(ipcs)
	est.ReuseMean, est.ReuseStdErr = meanStdErr(reuses)
	return est, s.Snapshot(), nil
}

// meanStdErr returns the sample mean and the standard error of the mean
// (sample standard deviation / sqrt(n)); 0 stderr for n < 2.
func meanStdErr(xs []float64) (mean, stderr float64) {
	n := float64(len(xs))
	if n == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= n
	if n < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss/(n-1)) / math.Sqrt(n)
}

func minU64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
