package regreuse

// One benchmark per table and figure of the paper's evaluation. Each runs a
// reduced (scale-1) version of the corresponding experiment so the full
// harness stays laptop-friendly; cmd/paper regenerates the reference-scale
// numbers recorded in EXPERIMENTS.md.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/area"
	"repro/internal/asm"
	"repro/internal/ckpt"
	"repro/internal/emu"
	"repro/internal/fabric"
	"repro/internal/pipeline"
	"repro/internal/regfile"
	"repro/internal/workloads"
)

// BenchmarkFig1SingleUse regenerates the Figure 1 analysis (single-use
// consumer fractions) across all workloads. Allocations are reported
// unconditionally: the streaming collector keeps the whole figure run at
// O(100) allocs (benchjson -allocs gates it in make benchsmoke).
func BenchmarkFig1SingleUse(b *testing.B) {
	warmMotivation(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := Motivation(1)
		if err != nil {
			b.Fatal(err)
		}
		suites := AggregateMotivation(rows)
		fp := suiteRow(suites, SPECfp)
		b.ReportMetric(fp.SingleUseRedef+fp.SingleUseOther, "specfp-singleuse-%")
		in := suiteRow(suites, SPECint)
		b.ReportMetric(in.SingleUseRedef+in.SingleUseOther, "specint-singleuse-%")
	}
}

// warmMotivation runs one untimed figure pass so the workload-source and
// assembled-program caches are populated before measurement: the benchmarks
// pin the steady-state analysis cost, not one-time program construction.
func warmMotivation(b *testing.B) {
	b.Helper()
	if _, err := Motivation(1); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFig2Consumers regenerates Figure 2 (consumer-count distribution).
func BenchmarkFig2Consumers(b *testing.B) {
	warmMotivation(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := Motivation(1)
		if err != nil {
			b.Fatal(err)
		}
		suites := AggregateMotivation(rows)
		b.ReportMetric(suiteRow(suites, SPECfp).ConsumerPct[0], "specfp-one-use-%")
	}
}

// BenchmarkFig3ReuseDepth regenerates Figure 3 (reuse-chain depth buckets).
func BenchmarkFig3ReuseDepth(b *testing.B) {
	warmMotivation(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := Motivation(1)
		if err != nil {
			b.Fatal(err)
		}
		suites := AggregateMotivation(rows)
		fp := suiteRow(suites, SPECfp)
		b.ReportMetric(fp.ReusablePct[0], "specfp-one-reuse-%")
		b.ReportMetric(fp.ReusablePct[1], "specfp-two-reuses-%")
	}
}

// BenchmarkTable2Area regenerates Table II (area model).
func BenchmarkTable2Area(b *testing.B) {
	var total float64
	for i := 0; i < b.N; i++ {
		rows := AreaTable()
		total = rows[len(rows)-1].MM2
	}
	b.ReportMetric(total*1e3, "overhead-milli-mm2")
}

// BenchmarkTable3EqualArea regenerates Table III (equal-area configs).
func BenchmarkTable3EqualArea(b *testing.B) {
	var regs int
	for i := 0; i < b.N; i++ {
		for _, row := range EqualAreaTable() {
			regs = row.Hybrid.Total()
		}
	}
	b.ReportMetric(float64(regs), "hybrid-regs-at-112")
}

// BenchmarkFig9Coverage regenerates Figure 9 (shadow-bank occupancy
// percentiles over the SPECfp-like suite).
func BenchmarkFig9Coverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		curves, err := OccupancyStudy(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(curves[0].Regs[4]), "regs-1shadow-p99")
	}
}

// BenchmarkFig10Speedup regenerates a reduced Figure 10 sweep (three sizes,
// the SPECfp-like suite) and reports the mid-size geomean speedup.
func BenchmarkFig10Speedup(b *testing.B) {
	names := []string{"dgemm", "poly_horner", "daxpy_chain", "nbody"}
	for i := 0; i < b.N; i++ {
		pts, err := SpeedupSweep(SweepOptions{Sizes: []int{56, 64, 96}, Scale: 1, Workloads: names})
		if err != nil {
			b.Fatal(err)
		}
		curves := AggregateSweep(pts)
		for _, c := range curves {
			if c.Suite == SPECfp {
				b.ReportMetric((c.Speedup[1]-1)*100, "specfp-speedup-%-at-64")
			}
		}
	}
}

// BenchmarkFig11IPC regenerates the Figure 11 IPC curves (reduced) and
// reports the equal-IPC register-file saving.
func BenchmarkFig11IPC(b *testing.B) {
	names := []string{"dgemm", "poly_horner", "daxpy_chain", "nbody"}
	for i := 0; i < b.N; i++ {
		pts, err := SpeedupSweep(SweepOptions{Sizes: []int{48, 56, 64, 80}, Scale: 1, Workloads: names})
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range AggregateSweep(pts) {
			if c.Suite == SPECfp {
				if saving, ok := EqualIPCSaving(c, 64); ok {
					b.ReportMetric(saving, "equal-ipc-saving-%")
				}
			}
		}
	}
}

// BenchmarkFig12Predictor regenerates Figure 12 (type-predictor outcome
// classification).
func BenchmarkFig12Predictor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := PredictorBreakdown(1)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Suite == SPECfp {
				b.ReportMetric(r.ReuseRight+r.NormalRight, "specfp-pred-correct-%")
			}
		}
	}
}

// BenchmarkAblationReuseDepth compares reuse-chain caps 1/2/3 (the N-bit
// counter trade-off of §IV-A) on a chain-heavy workload.
func BenchmarkAblationReuseDepth(b *testing.B) {
	for _, depth := range []int{1, 2, 3} {
		b.Run(benchName("depth", depth), func(b *testing.B) {
			var ipc float64
			for i := 0; i < b.N; i++ {
				res, err := RunWorkload("poly_horner", 1, Config{
					Scheme:     Reuse,
					ReuseDepth: depth,
					FPRegs:     area.EqualAreaConfig(56, 64),
				})
				if err != nil {
					b.Fatal(err)
				}
				ipc = res.IPC
			}
			b.ReportMetric(ipc, "IPC")
		})
	}
}

// BenchmarkCoreStep measures the steady-state cost of one simulated cycle
// per renaming scheme. Run with -benchmem: the allocs/op column must stay at
// zero (TestCoreStepZeroAllocs enforces it).
func BenchmarkCoreStep(b *testing.B) {
	w, ok := workloads.ByName("dgemm", 4)
	if !ok {
		b.Fatal("dgemm workload missing")
	}
	p := w.Program()
	for _, scheme := range []Scheme{Baseline, Reuse, EarlyRelease} {
		b.Run(scheme.String(), func(b *testing.B) {
			cfg := pipeline.DefaultConfig(pipeline.Scheme(scheme))
			core := pipeline.New(cfg, p)
			core.StepN(10000) // past cold-start warmup
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; {
				n := b.N - done
				if n > 10000 {
					n = 10000
				}
				core.StepN(n)
				done += n
				if core.Halted() {
					b.StopTimer()
					core = pipeline.New(cfg, p)
					core.StepN(10000)
					b.StartTimer()
				}
			}
		})
	}
}

// BenchmarkSweepScale1 runs the scale-1 register-file sweep over every
// workload at the paper's default 64-register point — the end-to-end shape
// the figure benchmarks stress, in benchstat-friendly form.
func BenchmarkSweepScale1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := SpeedupSweep(SweepOptions{Sizes: []int{64}, Scale: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(pts)), "points")
	}
}

// cacheHitGrid is BenchmarkCacheHitSubmit's grid: every kernel, scheme and
// two sizes, 198 jobs like perfbench's fast-forward service grid. Each job
// stops after 2000 instructions, which keeps the untimed cold pass short.
const cacheHitGrid = `{"name":"cache-hit","schemes":["baseline","reuse","early"],"scale":1,"sizes":[56,96],"max_insts":2000}`

// BenchmarkCacheHitSubmit measures the sweep service's cache-hit path. It
// runs cacheHitGrid once through an in-process fabric.Coordinator with one
// local worker, then times resubmissions of it to the coordinator's local
// HTTP handler. Every resubmitted job is a cache hit served while the
// submission is admitted, so an op is one POST /sweeps plus the status
// request that finds the sweep done; us/job divides its time by the jobs.
func BenchmarkCacheHitSubmit(b *testing.B) {
	c, err := fabric.NewCoordinator(b.TempDir(), fabric.CoordinatorOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	ts := httptest.NewServer(c.LocalHandler())
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	worker := c.LocalWorker(fabric.WorkerOptions{ID: "bench"})
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		_ = worker.Run(ctx)
	}()
	defer func() { cancel(); <-stopped }()

	submit := func() fabric.SweepStatus {
		resp, err := ts.Client().Post(ts.URL+"/sweeps", "application/json", strings.NewReader(cacheHitGrid))
		if err != nil {
			b.Fatal(err)
		}
		var sub struct {
			ID string `json:"id"`
		}
		err = json.NewDecoder(resp.Body).Decode(&sub)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusAccepted {
			b.Fatalf("submit: status %d, %v", resp.StatusCode, err)
		}
		for {
			resp, err := ts.Client().Get(ts.URL + "/sweeps/" + sub.ID)
			if err != nil {
				b.Fatal(err)
			}
			var st fabric.SweepStatus
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err != nil {
				b.Fatal(err)
			}
			if st.State != "running" {
				return st
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	if st := submit(); st.State != "done" || st.Executed != st.Jobs {
		b.Fatalf("cold pass: %+v", st)
	}
	var jobs int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := submit()
		if st.State != "done" || st.CacheHits != st.Jobs {
			b.Fatalf("resubmission: %+v, want every job a cache hit", st)
		}
		jobs += st.Jobs
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(jobs), "us/job")
}

// BenchmarkSimulatorThroughput measures raw simulation speed per scheme
// (simulated instructions per wall-clock second).
func BenchmarkSimulatorThroughput(b *testing.B) {
	for _, scheme := range []Scheme{Baseline, Reuse} {
		b.Run(scheme.String(), func(b *testing.B) {
			w, _ := workloads.ByName("dgemm", 1)
			p := w.Program()
			var insts uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core := pipeline.New(pipeline.DefaultConfig(pipeline.Scheme(scheme)), p)
				if err := core.Run(); err != nil {
					b.Fatal(err)
				}
				insts += core.Stats().Committed
			}
			b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "Minst/s")
		})
	}
}

// BenchmarkFastForward measures the functional fast-forward interpreter
// (emu.StepN's batched dispatch) end to end on the same workload as
// BenchmarkSimulatorThroughput; the ratio of the two Minst/s figures is the
// fast-forward speedup that cmd/benchjson records in BENCH_core.json. Each
// iteration times emu.New as well (booting memory from the program's data
// runs), as every ckpt.FastForward caller pays it. On dgemm about 1 % of
// instructions are loads or stores that leave the page a one-entry cache
// would hold, so the memory page table barely shows here.
func BenchmarkFastForward(b *testing.B) { benchFastForward(b, "dgemm") }

// BenchmarkFastForwardFir is the ungated sibling over fir, whose inner loop
// alternates loads between the tap and input arrays' pages: about 21 % of
// its instructions would miss a one-entry page cache, and none miss the
// page table once its pages are in.
func BenchmarkFastForwardFir(b *testing.B) { benchFastForward(b, "fir") }

func benchFastForward(b *testing.B, name string) {
	w, _ := workloads.ByName(name, 1)
	p := w.Program()
	var insts uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sn, err := ckpt.FastForward(p, 1<<62)
		if err != nil {
			b.Fatal(err)
		}
		insts += sn.InstCount
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "Minst/s")
}

// BenchmarkAssembleAll measures the assembler on its own: each op assembles
// the 33 reference-scale (scale-4) kernel sources, generated once before
// the timer starts. MB/s counts source bytes, nearly all of them .word and
// .double lines. perfbench's setup_s adds generation and process start to
// this layer. Ungated.
func BenchmarkAssembleAll(b *testing.B) {
	ws := workloads.AtScale(4)
	var n int64
	for _, w := range ws {
		n += int64(len(w.Source))
	}
	b.SetBytes(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, w := range ws {
			if _, err := asm.Assemble(w.Source); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkEmulatorThroughput measures the functional emulator's speed.
func BenchmarkEmulatorThroughput(b *testing.B) {
	w, _ := workloads.ByName("dgemm", 1)
	p := w.Program()
	var insts uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := emu.New(p)
		n, err := s.RunToHalt(1<<32, nil)
		if err != nil {
			b.Fatal(err)
		}
		insts += n
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "Minst/s")
}

// BenchmarkAnalysisThroughput measures the streaming Figure 1-3 trace
// analysis rate: committed instructions per wall-clock second through
// analysis.AnalyzeProgram (emu.RunToHaltBatch feeding the bounded-memory
// collector). Compare with BenchmarkEmulatorThroughput (the bare Step
// loop) and BenchmarkFastForward (StepN with no analysis) to see what the
// collector costs on top of execution; benchjson records the rate as
// analysis_minst_per_s in BENCH_core.json and floors it in benchsmoke.
// dgemm is the collector's best case: nearly every candidate row settles
// when it commits.
func BenchmarkAnalysisThroughput(b *testing.B) { benchAnalysis(b, "dgemm") }

// BenchmarkAnalysisThroughputRadixsort is the ungated sibling over
// radixsort, where most candidate rows open a sole group that waits on
// later commits.
func BenchmarkAnalysisThroughputRadixsort(b *testing.B) { benchAnalysis(b, "radixsort") }

func benchAnalysis(b *testing.B, name string) {
	w, _ := workloads.ByName(name, 1)
	p := w.Program()
	var insts uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := analysis.AnalyzeProgram(p, 1<<32)
		if err != nil {
			b.Fatal(err)
		}
		insts += rep.TotalInsts
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "Minst/s")
}

// BenchmarkBatchSink measures the interpreter's commit-sink path on its
// own: emu.RunToHaltBatch over BenchmarkAnalysisThroughput's kernel into a
// sink that only counts rows. It runs the same loop as BenchmarkFastForward
// with the row recorder switched on, and is the part of
// BenchmarkAnalysisThroughput that is not the figure collector, so a
// costlier way of recording rows shows here, on the emu layer. Ungated.
func BenchmarkBatchSink(b *testing.B) {
	w, _ := workloads.ByName("dgemm", 1)
	p := w.Program()
	var rows rowCounter
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := emu.New(p).RunToHaltBatch(1<<32, &rows); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows)/b.Elapsed().Seconds()/1e6, "Minst/s")
}

// rowCounter is an emu.CommitSink that only counts the rows it is handed.
type rowCounter uint64

func (c *rowCounter) CommitBatch(_ uint64, rows []uint32) { *c += rowCounter(len(rows)) }

func suiteRow(rows []SuiteMotivation, s Suite) SuiteMotivation {
	for _, r := range rows {
		if r.Suite == s {
			return r
		}
	}
	return SuiteMotivation{}
}

func benchName(prefix string, v int) string {
	return prefix + "-" + string(rune('0'+v))
}

// BenchmarkExtEnergy regenerates the energy-model extension comparison.
func BenchmarkExtEnergy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		row, err := EnergyComparison("poly_horner", 1, 64)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(row.Relative, "relative-RF-energy")
	}
}

// BenchmarkExtEarlyRelease regenerates the related-work scheme comparison
// (§VII): baseline vs early release vs the paper's reuse.
func BenchmarkExtEarlyRelease(b *testing.B) {
	for _, scheme := range []Scheme{Baseline, EarlyRelease, Reuse} {
		b.Run(scheme.String(), func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				cfg := Config{Scheme: scheme}
				if scheme == Baseline {
					cfg.FPRegs = regfile.Uniform(56, 0)
				} else {
					cfg.FPRegs = area.EqualAreaConfig(56, 64)
				}
				res, err := RunWorkload("poly_horner", 1, cfg)
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Cycles
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

// BenchmarkSampledThroughput measures the production detailed-core rate:
// interval sampling (ckpt.SampleN) over the reference-scale workload, with
// detail intervals fanned across GOMAXPROCS workers. The reported Minst/s is
// the effective rate — total program instructions over wall-clock time —
// which is how many instructions per second the detailed core characterizes
// when driven the way the sweeps drive it (statistics with stderr on ~5%
// detailed coverage, checksum still validated end to end). Compare with
// BenchmarkSimulatorThroughput for the raw full-fidelity rate; benchjson
// records the ratio as sampled_speedup in BENCH_core.json.
func BenchmarkSampledThroughput(b *testing.B) {
	var insts uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := RunWorkload("dgemm", 4, Config{
			Scheme:        Reuse,
			Sample:        "2000:5000:100000",
			SampleWorkers: -1, // GOMAXPROCS
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Sampled == nil || !res.ChecksumOK {
			b.Fatal("sampled run did not produce a checked estimate")
		}
		insts += res.Sampled.TotalInsts
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "Minst/s")
}
