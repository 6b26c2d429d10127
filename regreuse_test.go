package regreuse

import (
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/obs"
	"repro/internal/regfile"
	"repro/internal/sim"
	"repro/internal/sweep"
)

func TestRunWorkloadBothSchemes(t *testing.T) {
	for _, scheme := range []Scheme{Baseline, Reuse} {
		res, err := RunWorkload("dgemm", 1, Config{Scheme: scheme, CheckOracle: true})
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if !res.Halted || !res.ChecksumOK {
			t.Errorf("%v: halted=%v checksumOK=%v", scheme, res.Halted, res.ChecksumOK)
		}
		if res.IPC <= 0 {
			t.Errorf("%v: IPC = %f", scheme, res.IPC)
		}
		if scheme == Reuse && res.Reuses == 0 {
			t.Error("reuse scheme reported no reuses")
		}
		if scheme == Baseline && res.Reuses != 0 {
			t.Error("baseline reported reuses")
		}
		if res.Hier == nil || res.Hier.L1D.Hits+res.Hier.L1D.Misses == 0 {
			t.Error("memory hierarchy stats missing")
		}
	}
}

func TestRunWorkloadUnknownName(t *testing.T) {
	if _, err := RunWorkload("nope", 1, Config{}); err == nil {
		t.Error("expected error for unknown workload")
	}
}

// TestRunRefusesBadConfigs: a register file that cannot back the 32
// logical registers, a reuse depth the shadow cells cannot hold, and a
// sampling plan the program is too short to measure once are errors on the
// library path, not a renamer panic or a run of zero cycles.
func TestRunRefusesBadConfigs(t *testing.T) {
	for _, c := range []struct {
		workload string
		cfg      Config
		want     string
	}{
		{"dgemm", Config{Scheme: Reuse, FPRegs: sim.RegFile(Reuse, 32)}, "FP register file of 30 cannot back 32 logical registers"},
		{"poly_horner", Config{Scheme: Baseline, IntRegs: regfile.Uniform(-5, 0)}, "integer register file of -5 cannot back 32 logical registers"},
		{"poly_horner", Config{Scheme: Reuse, ReuseDepth: 4}, "reuse depth 4 out of range 1..3"},
		{"poly_horner", Config{Scheme: Baseline, Sample: "20000:5000:100000"}, "sample plan 20000:5000:100000 measured no interval in 75800 instructions"},
	} {
		if _, err := RunWorkload(c.workload, 1, c.cfg); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s %+v: err = %v, want %q", c.workload, c.cfg, err, c.want)
		}
	}
	if _, err := EnergyComparison("dgemm", 1, 32); err == nil || !strings.Contains(err.Error(), "cannot back 32 logical registers") {
		t.Errorf("EnergyComparison at 32 registers: err = %v, want the register-file error", err)
	}
}

func TestRunProgram(t *testing.T) {
	p, err := asm.Assemble(`
		movi x1, #21
		add  x10, x1, x1
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunProgram(p, Config{Scheme: Reuse, CheckOracle: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Checksum != 42 {
		t.Errorf("checksum = %d, want 42", res.Checksum)
	}
}

func TestConfigKnobs(t *testing.T) {
	res, err := RunWorkload("poly_horner", 1, Config{
		Scheme:      Reuse,
		ReuseDepth:  1,
		FPRegs:      regfile.BankSizes{30, 12, 0, 0},
		CheckOracle: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ReusesByVer[2] != 0 || res.ReusesByVer[3] != 0 {
		t.Errorf("ReuseDepth=1 produced deeper reuses: %v", res.ReusesByVer)
	}
	res2, err := RunWorkload("poly_horner", 1, Config{
		Scheme:                  Reuse,
		DisableSpeculativeReuse: true,
		CheckOracle:             true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.ReusePredict != 0 {
		t.Errorf("speculative reuse disabled but %d speculative reuses", res2.ReusePredict)
	}
}

func TestInterruptsThroughFacade(t *testing.T) {
	res, err := RunWorkload("fir", 1, Config{Scheme: Reuse, InterruptEvery: 3000, CheckOracle: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Interrupts == 0 {
		t.Error("no interrupts observed")
	}
	if !res.ChecksumOK {
		t.Error("interrupts corrupted architectural state")
	}
}

func TestAnalyzeWorkload(t *testing.T) {
	rep, err := AnalyzeWorkload("poly_horner", 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalInsts == 0 || rep.DestInsts == 0 {
		t.Error("empty analysis report")
	}
	a, b := rep.SingleUsePct()
	if a+b <= 0 {
		t.Error("no single-use instructions in a Horner chain workload")
	}
}

// TestMotivationHonorsScale: Figures 1-3 analyze every workload at the
// requested scale, the same run AnalyzeWorkload makes.
func TestMotivationHonorsScale(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping all-workload motivation sweep")
	}
	rows, err := Motivation(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Workloads()) {
		t.Fatalf("got %d rows, want %d", len(rows), len(Workloads()))
	}
	for _, r := range rows {
		want, err := AnalyzeWorkload(r.Workload, 2)
		if err != nil {
			t.Fatal(err)
		}
		if r.Report != want {
			t.Errorf("%s: Motivation(2) analyzed %d instructions, AnalyzeWorkload at scale 2 %d",
				r.Workload, r.Report.TotalInsts, want.TotalInsts)
		}
	}
}

func TestMotivationAndAggregation(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping all-workload motivation sweep")
	}
	rows, err := Motivation(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Workloads()) {
		t.Fatalf("got %d rows, want %d", len(rows), len(Workloads()))
	}
	suites := AggregateMotivation(rows)
	if len(suites) != 4 {
		t.Fatalf("got %d suites", len(suites))
	}
	// EXPERIMENTS.md's Figure 1-3 claims, which TestPaperClaims checks on
	// the reference-scale CSVs, hold at scale 1 too.
	for _, s := range suites {
		total := s.SingleUseRedef + s.SingleUseOther
		if total <= 0 || s.Suite == SPECint && total <= 30 {
			t.Errorf("suite %s: single-use total %.2f%%, want > 0 (> 30 for SPECint)", s.Suite, total)
		}
		for i, v := range s.ConsumerPct[1:] {
			if v >= s.ConsumerPct[0] {
				t.Errorf("suite %s: %d-consumer bucket %.2f%% not below the one-consumer %.2f%%",
					s.Suite, i+2, v, s.ConsumerPct[0])
			}
		}
		if s.ConsumerPct[0] <= 60 {
			t.Errorf("suite %s: one-consumer bucket %.2f%%, want > 60%%", s.Suite, s.ConsumerPct[0])
		}
		if r := s.ReusablePct; !(r[0] > r[1] && r[1] > r[2]) {
			t.Errorf("suite %s: reuse depths one %.2f, two %.2f, three %.2f; want one > two > three",
				s.Suite, r[0], r[1], r[2])
		}
	}
}

func TestSpeedupSweepSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping speedup sweep")
	}
	pts, err := SpeedupSweep(SweepOptions{
		Sizes:     []int{56, 96},
		Scale:     1,
		Workloads: []string{"poly_horner", "qsortint"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("got %d points, want 4", len(pts))
	}
	for _, p := range pts {
		if p.Speedup <= 0 || p.BaseCycles == 0 || p.ReuseCycles == 0 {
			t.Errorf("degenerate point %+v", p)
		}
	}
	curves := AggregateSweep(pts)
	if len(curves) != 2 {
		t.Fatalf("got %d curves", len(curves))
	}
	// poly_horner: register pressure at 56 should favor reuse.
	for _, p := range pts {
		if p.Workload == "poly_horner" && p.BaselineRegs == 56 && p.Speedup < 1.0 {
			t.Errorf("poly_horner@56 speedup = %.3f, expected > 1", p.Speedup)
		}
	}
}

func TestEqualAreaTableAndAreaTable(t *testing.T) {
	rows := EqualAreaTable()
	if len(rows) != 7 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Hybrid.Total() >= r.BaselineRegs {
			t.Errorf("hybrid for %d not smaller: %v", r.BaselineRegs, r.Hybrid)
		}
	}
	a := AreaTable()
	if len(a) != 6 {
		t.Fatalf("area table rows = %d", len(a))
	}
}

func TestPredictorBreakdownSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping all-workload predictor sweep")
	}
	rows, err := PredictorBreakdown(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		total := r.ReuseRight + r.ReuseWrong + r.NormalRight + r.NormalWrong
		if total < 99 || total > 101 {
			t.Errorf("suite %s: predictor categories sum to %.1f%%", r.Suite, total)
		}
	}
}

func TestOccupancyStudySmall(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping occupancy study sweep")
	}
	curves, err := OccupancyStudy(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 3 {
		t.Fatalf("got %d curves", len(curves))
	}
	for _, c := range curves {
		for i := 1; i < len(c.Regs); i++ {
			if c.Regs[i] < c.Regs[i-1] {
				t.Errorf("level %d: coverage curve not monotone: %v", c.Level, c.Regs)
			}
		}
	}
	// Demand must fall with shadow depth (Figure 9's shape).
	if curves[0].Regs[5] < curves[2].Regs[5] {
		t.Errorf("level-1 demand (%d) below level-3 demand (%d)", curves[0].Regs[5], curves[2].Regs[5])
	}
}

func TestEqualIPCSaving(t *testing.T) {
	c := SuiteCurve{
		Suite:    SPECfp,
		Sizes:    []int{48, 64, 80},
		BaseIPC:  []float64{1.0, 1.2, 1.3},
		ReuseIPC: []float64{1.1, 1.3, 1.35},
	}
	// Reuse reaches baseline@64's 1.2 between 48 (1.1) and 64 (1.3): at 56.
	saving, ok := EqualIPCSaving(c, 64)
	if !ok {
		t.Fatal("no saving computed")
	}
	if saving < 10 || saving > 15 {
		t.Errorf("saving = %.1f%%, want ~12.5%%", saving)
	}
	if _, ok := EqualIPCSaving(c, 60); ok {
		t.Error("saving computed for unknown size")
	}
}

func TestFPHeavyClassification(t *testing.T) {
	if !FPHeavy("dgemm") || FPHeavy("qsortint") {
		t.Error("FPHeavy misclassifies")
	}
	// Every workload name must be classifiable.
	for _, n := range Workloads() {
		_ = FPHeavy(n)
	}
}

func TestEnergyComparison(t *testing.T) {
	row, err := EnergyComparison("poly_horner", 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	if row.BaseEnergy.Total <= 0 || row.ReuseEnergy.Total <= 0 {
		t.Fatal("degenerate energies")
	}
	if row.Relative <= 0 {
		t.Errorf("relative energy = %f", row.Relative)
	}
	// Under register pressure the reuse scheme finishes faster on a
	// smaller file: total register-file energy should not balloon.
	if row.Relative > 1.2 {
		t.Errorf("reuse energy %.2fx baseline; model or scheme regression", row.Relative)
	}
	t.Logf("poly_horner@64: relative RF energy %.3f at %.3f relative runtime",
		row.Relative, row.RelativePerf)
}

func TestEarlyReleaseThroughFacade(t *testing.T) {
	res, err := RunWorkload("dgemm", 1, Config{Scheme: EarlyRelease, CheckOracle: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.ChecksumOK || !res.Halted {
		t.Error("early-release scheme failed through the facade")
	}
	if res.Reuses != 0 {
		t.Error("early-release scheme must not report register sharing")
	}
}

// TestSampledWorkersDeterminism runs the same interval-sampled simulation
// serially and with the detail intervals fanned across goroutines. The full
// Result — headline counters, estimate, standard errors — must be
// bit-identical: worker count is an execution option, not a configuration.
//
// The observed case gives every interval core one metrics observer. Under
// -race it fails unless observed intervals run serially, since observers
// are not safe for concurrent use.
func TestSampledWorkersDeterminism(t *testing.T) {
	run := func(workers int, o obs.Observer) Result {
		res, err := RunWorkload("dgemm", 1, Config{
			Scheme: Reuse, Sample: "200:500:5000", SampleWorkers: workers, Observer: o,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Sampled == nil || res.Sampled.Samples == 0 {
			t.Fatalf("workers=%d: no sampled estimate", workers)
		}
		return res
	}
	want := run(1, nil)
	for _, c := range []struct {
		workers int
		o       obs.Observer
	}{{2, nil}, {4, nil}, {4, obs.NewMetrics(0, io.Discard)}} {
		if got := run(c.workers, c.o); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d observed=%t: result diverged from serial run:\n got %+v\nwant %+v",
				c.workers, c.o != nil, got, want)
		}
	}
}

// TestFacadeSweepParity runs the same job through RunWorkload and through
// sweep.Execute, in each run mode, and requires every counter that both
// result types carry to be equal.
func TestFacadeSweepParity(t *testing.T) {
	// shared holds the fields Result and sweep.JobResult both carry.
	type shared struct {
		Cycles, Insts, MicroOps       uint64
		IPC, MPKI                     float64
		ChecksumOK                    bool
		Allocations, Reuses, Repairs  uint64
		ReusesByVer                   [4]uint64
		StallNoReg, StallROB, StallIQ uint64
		FFInsts                       uint64
		Sampled                       SampleEstimate
	}
	modes := []struct {
		name         string
		ff, warmup   uint64
		samplePlan   string
		wantEstimate bool
	}{
		{name: "full"},
		{name: "ff", ff: 5000, warmup: 1000},
		{name: "sampled", samplePlan: "200:500:5000", wantEstimate: true},
	}
	for _, name := range []string{"poly_horner", "qsortint", "gmm_score"} {
		for _, m := range modes {
			t.Run(name+"/"+m.name, func(t *testing.T) {
				res, err := RunWorkload(name, 1, Config{
					Scheme: Reuse, FastForward: m.ff, Warmup: m.warmup, Sample: m.samplePlan,
				})
				if err != nil {
					t.Fatal(err)
				}
				jr, _, err := sweep.Execute(sweep.Job{
					Workload: name, Scheme: "reuse", Scale: 1,
					FastForward: m.ff, Warmup: m.warmup, Sample: m.samplePlan,
				}, nil, 1)
				if err != nil {
					t.Fatal(err)
				}
				if (res.Sampled != nil) != m.wantEstimate || (jr.Sampled != nil) != m.wantEstimate {
					t.Fatalf("estimates: facade %v, sweep %v, want present=%t", res.Sampled, jr.Sampled, m.wantEstimate)
				}
				facade := shared{
					res.Cycles, res.Insts, res.MicroOps, res.IPC, res.MPKI, res.ChecksumOK,
					res.Allocations, res.Reuses, res.Repairs, res.ReusesByVer,
					res.StallNoReg, res.StallROB, res.StallIQ, res.FFInsts, SampleEstimate{},
				}
				job := shared{
					jr.Cycles, jr.Insts, jr.MicroOps, jr.IPC, jr.MPKI, jr.ChecksumOK,
					jr.Allocations, jr.Reuses, jr.Repairs, jr.ReusesByVer,
					jr.StallNoReg, jr.StallROB, jr.StallIQ, jr.FFInsts, SampleEstimate{},
				}
				if m.wantEstimate {
					facade.Sampled, job.Sampled = *res.Sampled, *jr.Sampled
				}
				if facade != job {
					t.Errorf("facade and sweep disagree:\nfacade %+v\nsweep  %+v", facade, job)
				}
			})
		}
	}
}
