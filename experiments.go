package regreuse

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"sort"

	"repro/internal/analysis"
	"repro/internal/area"
	"repro/internal/ckpt"
	"repro/internal/isa"
	"repro/internal/par"
	"repro/internal/pipeline"
	"repro/internal/regfile"
	"repro/internal/sweep"
	"repro/internal/workloads"
)

// sweepCacheDir, when set (SetSweepCacheDir), makes the engine-backed
// experiments persist and reuse per-job results across process runs.
var sweepCacheDir string

// SetSweepCacheDir points the engine-backed experiments (SpeedupSweep,
// PredictorBreakdown) at a content-addressed result cache: re-running a
// figure only simulates points missing from the cache. Fast-forward
// checkpoints live in a "ckpt" subdirectory beside the cached results, so
// every scheme swept over a workload shares one functional prefix.
// "" (the default) disables caching. Set it before launching experiments; it
// is not synchronized against concurrent sweeps.
func SetSweepCacheDir(dir string) { sweepCacheDir = dir }

// sweepEngineOptions assembles engine options for the experiment entry
// points. An unusable cache directory degrades to uncached execution rather
// than failing the figure run.
func sweepEngineOptions(workers int) sweep.Options {
	opts := sweep.Options{Workers: workers}
	if sweepCacheDir != "" {
		if c, err := sweep.NewCache(sweepCacheDir); err == nil {
			opts.Cache = c
		}
		if s, err := ckpt.NewStore(filepath.Join(sweepCacheDir, "ckpt")); err == nil {
			opts.Ckpt = s
		}
	}
	return opts
}

// FPHeavy reports whether the named workload stresses the FP register file;
// sweeps vary that file and keep the other ample, as the paper does
// ("integer and floating-point register files are decoupled", §VI-B).
func FPHeavy(name string) bool { return workloads.FPHeavy(name) }

// ---- Figures 1-3: motivation analyses ----

// MotivationRow is one workload's trace-analysis summary.
type MotivationRow struct {
	Workload string
	Suite    Suite
	Report   analysis.Report
}

// Motivation runs the Figure 1/2/3 analyses over every workload. Each
// workload's trace streams through the bounded-memory collector on the
// emulator's batched commit-sink path (analysis.AnalyzeProgram); the fan-out
// merges rows by workload index, so the output order is deterministic for
// any worker count.
func Motivation(scale int) ([]MotivationRow, error) {
	ws := workloads.All()
	if scale == 1 {
		ws = workloads.Small()
	}
	rows := make([]MotivationRow, len(ws))
	err := par.ForEachCtx(context.Background(), len(ws), 0, func(i int) error {
		w := ws[i]
		rep, err := analysis.AnalyzeProgram(w.Program(), 1<<32)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		rows[i] = MotivationRow{Workload: w.Name, Suite: w.Suite, Report: rep}
		return nil
	})
	return rows, err
}

// SuiteMotivation averages motivation rows per suite.
type SuiteMotivation struct {
	Suite          Suite
	SingleUseRedef float64 // % of instructions (Figure 1, bottom segment)
	SingleUseOther float64 // % of instructions (Figure 1, top segment)
	ConsumerPct    [6]float64
	ReusablePct    [4]float64
}

// AggregateMotivation reduces per-workload rows to per-suite averages.
func AggregateMotivation(rows []MotivationRow) []SuiteMotivation {
	var out []SuiteMotivation
	for _, s := range workloads.Suites() {
		var agg SuiteMotivation
		agg.Suite = s
		n := 0
		for _, r := range rows {
			if r.Suite != s {
				continue
			}
			n++
			a, b := r.Report.SingleUsePct()
			agg.SingleUseRedef += a
			agg.SingleUseOther += b
			cp := r.Report.ConsumerPct()
			rp := r.Report.ReusablePct()
			for i := range cp {
				agg.ConsumerPct[i] += cp[i]
			}
			for i := range rp {
				agg.ReusablePct[i] += rp[i]
			}
		}
		if n == 0 {
			continue
		}
		agg.SingleUseRedef /= float64(n)
		agg.SingleUseOther /= float64(n)
		for i := range agg.ConsumerPct {
			agg.ConsumerPct[i] /= float64(n)
		}
		for i := range agg.ReusablePct {
			agg.ReusablePct[i] /= float64(n)
		}
		out = append(out, agg)
	}
	return out
}

// ---- Figures 10/11: register-file size sweep ----

// SweepPoint is one (workload, baseline-RF-size) comparison.
type SweepPoint struct {
	Workload     string
	Suite        Suite
	BaselineRegs int
	HybridCfg    regfile.BankSizes
	BaseCycles   uint64
	ReuseCycles  uint64
	BaseIPC      float64
	ReuseIPC     float64
	Speedup      float64 // BaseCycles / ReuseCycles
}

// SweepOptions controls the Figure 10/11 sweep.
type SweepOptions struct {
	Sizes     []int // baseline register-file sizes (default: Table III's)
	Scale     int   // workload scale (default 4)
	Workloads []string
	// ReuseDepth / DisableSpeculativeReuse forward to Config (ablations).
	ReuseDepth              int
	DisableSpeculativeReuse bool
	// Workers bounds simulation parallelism (0 = GOMAXPROCS).
	Workers int
	// FastForward/Warmup skip the first FastForward instructions of every
	// job at functional speed, replaying the last Warmup of them into
	// caches/bpred (0 = fully detailed). With SetSweepCacheDir the
	// checkpoint is built once per workload and shared by every point.
	FastForward uint64
	Warmup      uint64
	// Sample runs every job in interval-sampling mode with the given
	// "warmup:detail:interval" plan; mutually exclusive with FastForward.
	// Sampled sweeps estimate speedups rather than measure them exactly.
	Sample string
}

// SpeedupSweep reproduces Figure 10 (and the data behind Figure 11): for
// every workload and every baseline register-file size, simulate the
// baseline against the equal-area hybrid configuration from Table III. It
// runs through the internal/sweep engine, so with SetSweepCacheDir the
// points are content-addressed-cached and a rerun only simulates what is
// missing.
func SpeedupSweep(opt SweepOptions) ([]SweepPoint, error) {
	if len(opt.Sizes) == 0 {
		opt.Sizes = area.Table3Sizes()
	}
	if opt.Scale == 0 {
		opt.Scale = 4
	}
	names := opt.Workloads
	if len(names) == 0 {
		names = workloads.Names()
	}
	spec := sweep.Spec{
		Name:                    "fig10-speedup",
		Workloads:               names,
		Schemes:                 []string{"baseline", "reuse"},
		Scale:                   opt.Scale,
		Sizes:                   opt.Sizes,
		ReuseDepth:              opt.ReuseDepth,
		DisableSpeculativeReuse: opt.DisableSpeculativeReuse,
		FastForward:             opt.FastForward,
		Warmup:                  opt.Warmup,
		Sample:                  opt.Sample,
	}
	res, err := sweep.Run(context.Background(), spec, sweepEngineOptions(opt.Workers))
	if err != nil {
		return nil, err
	}
	// Expansion is workload-major, then size, then scheme (baseline at +0,
	// reuse at +1).
	points := make([]SweepPoint, 0, len(names)*len(opt.Sizes))
	for wi, n := range names {
		w, _ := workloads.ByName(n, opt.Scale)
		for si, size := range opt.Sizes {
			i := (wi*len(opt.Sizes) + si) * 2
			base, reuse := res.Results[i], res.Results[i+1]
			points = append(points, SweepPoint{
				Workload:     n,
				Suite:        w.Suite,
				BaselineRegs: size,
				HybridCfg:    area.EqualAreaConfig(size, 64),
				BaseCycles:   base.Cycles,
				ReuseCycles:  reuse.Cycles,
				BaseIPC:      base.IPC,
				ReuseIPC:     reuse.IPC,
				Speedup:      float64(base.Cycles) / float64(reuse.Cycles),
			})
		}
	}
	return points, nil
}

// SuiteCurve is Figure 10/11 data for one suite: x = baseline size.
type SuiteCurve struct {
	Suite    Suite
	Sizes    []int
	Speedup  []float64 // geometric mean per size (Figure 10)
	BaseIPC  []float64 // arithmetic mean per size (Figure 11)
	ReuseIPC []float64
}

// AggregateSweep reduces sweep points to per-suite curves.
func AggregateSweep(points []SweepPoint) []SuiteCurve {
	sizeSet := map[int]bool{}
	for _, p := range points {
		sizeSet[p.BaselineRegs] = true
	}
	var sizes []int
	for s := range sizeSet {
		sizes = append(sizes, s)
	}
	sort.Ints(sizes)

	var out []SuiteCurve
	for _, suite := range workloads.Suites() {
		c := SuiteCurve{Suite: suite, Sizes: sizes}
		for _, sz := range sizes {
			logSum, ipcB, ipcR := 0.0, 0.0, 0.0
			n := 0
			for _, p := range points {
				if p.Suite != suite || p.BaselineRegs != sz {
					continue
				}
				logSum += math.Log(p.Speedup)
				ipcB += p.BaseIPC
				ipcR += p.ReuseIPC
				n++
			}
			if n == 0 {
				continue
			}
			c.Speedup = append(c.Speedup, math.Exp(logSum/float64(n)))
			c.BaseIPC = append(c.BaseIPC, ipcB/float64(n))
			c.ReuseIPC = append(c.ReuseIPC, ipcR/float64(n))
		}
		if len(c.Speedup) > 0 {
			out = append(out, c)
		}
	}
	return out
}

// EqualIPCSaving estimates Figure 11's headline: the register-file reduction
// (in %) at which the reuse scheme matches the baseline's IPC at baseline
// size n. It interpolates the reuse IPC curve against base IPC at n.
func EqualIPCSaving(c SuiteCurve, n int) (float64, bool) {
	idx := -1
	for i, s := range c.Sizes {
		if s == n {
			idx = i
		}
	}
	if idx < 0 {
		return 0, false
	}
	target := c.BaseIPC[idx]
	// Find the smallest size where reuse IPC >= target.
	for i := 0; i < len(c.Sizes); i++ {
		if c.ReuseIPC[i] >= target {
			if i == 0 {
				return 100 * float64(n-c.Sizes[0]) / float64(n), true
			}
			// Linear interpolation between sizes i-1 and i.
			x0, x1 := float64(c.Sizes[i-1]), float64(c.Sizes[i])
			y0, y1 := c.ReuseIPC[i-1], c.ReuseIPC[i]
			if y1 == y0 {
				return 100 * (float64(n) - x1) / float64(n), true
			}
			x := x0 + (x1-x0)*(target-y0)/(y1-y0)
			return 100 * (float64(n) - x) / float64(n), true
		}
	}
	return 0, false
}

// ---- Figure 12: predictor accuracy ----

// PredictorBreakdown reproduces Figure 12: per-suite fractions of register
// allocations by predictor outcome, measured at the paper's default size.
type PredictorRow struct {
	Suite                    Suite
	ReuseRight, ReuseWrong   float64 // predicted reused: correct / incorrect
	NormalRight, NormalWrong float64 // predicted normal: correct / lost opportunity
	RepairRate               float64 // repair micro-ops per 1000 instructions
}

// PredictorBreakdown runs the reuse scheme at the default configuration and
// classifies predictor outcomes. Like SpeedupSweep it runs through the
// internal/sweep engine and participates in the same result cache.
func PredictorBreakdown(scale int) ([]PredictorRow, error) {
	ws := workloads.All()
	if scale == 1 {
		ws = workloads.Small()
	}
	names := make([]string, len(ws))
	for i, w := range ws {
		names[i] = w.Name
	}
	spec := sweep.Spec{
		Name:      "fig12-predictor",
		Workloads: names,
		Schemes:   []string{"reuse"},
		Scale:     scaleOrDefault(scale),
	}
	res, err := sweep.Run(context.Background(), spec, sweepEngineOptions(0))
	if err != nil {
		return nil, err
	}
	type acc struct {
		rr, rw, nr, nw, rep float64
		n                   int
	}
	m := map[Suite]*acc{}
	for i, w := range ws {
		r := res.Results[i]
		a := m[w.Suite]
		if a == nil {
			a = &acc{}
			m[w.Suite] = a
		}
		tot := float64(r.PredReuseRight + r.PredReuseWrong + r.PredNormalRight + r.PredNormalWrong)
		if tot == 0 {
			continue
		}
		a.rr += float64(r.PredReuseRight) / tot
		a.rw += float64(r.PredReuseWrong) / tot
		a.nr += float64(r.PredNormalRight) / tot
		a.nw += float64(r.PredNormalWrong) / tot
		a.rep += 1000 * float64(r.Repairs) / float64(r.Insts)
		a.n++
	}
	var out []PredictorRow
	for _, s := range workloads.Suites() {
		a := m[s]
		if a == nil || a.n == 0 {
			continue
		}
		f := float64(a.n)
		out = append(out, PredictorRow{
			Suite:       s,
			ReuseRight:  100 * a.rr / f,
			ReuseWrong:  100 * a.rw / f,
			NormalRight: 100 * a.nr / f,
			NormalWrong: 100 * a.nw / f,
			RepairRate:  a.rep / f,
		})
	}
	return out, nil
}

// ---- Figure 9: shadow-bank occupancy ----

// OccupancyCurve gives, per shadow level k, the register count needed to
// cover each fraction of execution time.
type OccupancyCurve struct {
	Level     int
	Fractions []float64
	Regs      []int
}

// OccupancyStudy reproduces Figure 9: run the FP-heavy suites on the reuse
// scheme with an effectively unbounded all-shadow register file and sample,
// every sampleInterval cycles (0 = the default 64), how many registers sit
// at version >= k.
func OccupancyStudy(scale int, suite Suite, sampleInterval uint64) ([]OccupancyCurve, error) {
	if sampleInterval == 0 {
		sampleInterval = 64
	}
	ws := workloads.SuiteOf(suite, scaleOrDefault(scale))
	fractions := []float64{0.50, 0.75, 0.90, 0.95, 0.99, 1.0}
	type occResult struct {
		samples   uint64
		occupancy [regfile.MaxShadow + 1][]uint64
	}
	results := make([]occResult, len(ws))
	err := par.ForEach(len(ws), 0, func(i int) error {
		w := ws[i]
		cfg := pipeline.DefaultConfig(pipeline.Reuse)
		cfg.IntRegs = regfile.Uniform(192, 3)
		cfg.FPRegs = regfile.Uniform(192, 3)
		cfg.OccupancySampleInterval = sampleInterval
		cfg.MaxCycles = 1 << 36
		core := pipeline.New(cfg, w.Program())
		if err := core.Run(); err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		st := core.Stats()
		results[i].samples = st.OccupancySamples
		for k := 1; k <= regfile.MaxShadow; k++ {
			results[i].occupancy[k] = st.Occupancy[k]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	agg := make([][]uint64, regfile.MaxShadow+1)
	var samples uint64
	for i := range results {
		samples += results[i].samples
		for k := 1; k <= regfile.MaxShadow; k++ {
			if agg[k] == nil {
				agg[k] = make([]uint64, len(results[i].occupancy[k]))
			}
			for n, cnt := range results[i].occupancy[k] {
				agg[k][n] += cnt
			}
		}
	}
	var out []OccupancyCurve
	for k := 1; k <= regfile.MaxShadow; k++ {
		c := OccupancyCurve{Level: k, Fractions: fractions}
		for _, f := range fractions {
			target := uint64(f * float64(samples))
			cum := uint64(0)
			reg := 0
			for n, cnt := range agg[k] {
				cum += cnt
				if cum >= target {
					reg = n
					break
				}
			}
			c.Regs = append(c.Regs, reg)
		}
		out = append(out, c)
	}
	return out, nil
}

// ---- Tables II and III ----

// AreaTable reproduces Table II.
func AreaTable() []area.Table2Row { return area.Table2() }

// EqualAreaRow pairs a baseline size with its hybrid configuration.
type EqualAreaRow struct {
	BaselineRegs int
	Hybrid       regfile.BankSizes
	SavingsPct   float64
}

// EqualAreaTable reproduces Table III.
func EqualAreaTable() []EqualAreaRow {
	var rows []EqualAreaRow
	for _, n := range area.Table3Sizes() {
		cfg := area.EqualAreaConfig(n, 64)
		rows = append(rows, EqualAreaRow{
			BaselineRegs: n,
			Hybrid:       cfg,
			SavingsPct:   100 * area.Savings(n, cfg, 64),
		})
	}
	return rows
}

// ---- helpers ----

func scaleOrDefault(s int) int {
	if s == 0 {
		return 4
	}
	return s
}

// ---- Energy extension (beyond the paper's area analysis) ----

// EnergyRow compares the register-file energy of the baseline and the
// equal-area hybrid at one baseline size, for one workload, normalized to
// the baseline ( < 1 means the reuse scheme saves energy).
type EnergyRow struct {
	Workload     string
	BaselineRegs int
	BaseEnergy   area.FileEnergy
	ReuseEnergy  area.FileEnergy
	Relative     float64 // reuse total / baseline total
	RelativePerf float64 // reuse cycles / baseline cycles
}

// EnergyComparison runs one workload under both schemes at an equal-area
// register-file pairing and applies the normalized energy model to the
// swept file's port activity.
func EnergyComparison(name string, scale, baselineRegs int) (EnergyRow, error) {
	hybrid := area.EqualAreaConfig(baselineRegs, 64)
	swept := regfile.Uniform(baselineRegs, 0)
	ample := regfile.Uniform(128, 0)
	baseCfg := Config{Scheme: Baseline}
	reuseCfg := Config{Scheme: Reuse}
	sweptClass := isa.IntReg
	if FPHeavy(name) {
		sweptClass = isa.FPReg
		baseCfg.FPRegs, baseCfg.IntRegs = swept, ample
		reuseCfg.FPRegs, reuseCfg.IntRegs = hybrid, ample
	} else {
		baseCfg.IntRegs, baseCfg.FPRegs = swept, ample
		reuseCfg.IntRegs, reuseCfg.FPRegs = hybrid, ample
	}

	runOne := func(cfg Config) (*pipeline.Core, Result, error) {
		w, ok := workloads.ByName(name, scale)
		if !ok {
			return nil, Result{}, fmt.Errorf("unknown workload %q", name)
		}
		core := pipeline.New(cfg.pipelineConfig(), w.Program())
		if err := core.Run(); err != nil {
			return nil, Result{}, err
		}
		st := core.Stats()
		return core, Result{Cycles: st.Cycles}, nil
	}
	bCore, bRes, err := runOne(baseCfg)
	if err != nil {
		return EnergyRow{}, err
	}
	rCore, rRes, err := runOne(reuseCfg)
	if err != nil {
		return EnergyRow{}, err
	}
	bRF := bCore.RegFile(sweptClass)
	rRF := rCore.RegFile(sweptClass)
	row := EnergyRow{
		Workload:     name,
		BaselineRegs: baselineRegs,
		BaseEnergy:   area.ConventionalEnergy(baselineRegs, 64, bRF.Reads, bRF.Writes, bRes.Cycles),
		ReuseEnergy:  area.BankedEnergy(hybrid, 64, rRF.Reads, rRF.Writes, rRF.ShadowWrites, rRes.Cycles),
		RelativePerf: float64(rRes.Cycles) / float64(bRes.Cycles),
	}
	row.Relative = row.ReuseEnergy.Total / row.BaseEnergy.Total
	return row, nil
}
