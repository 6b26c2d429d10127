// Command paper regenerates every table and figure of the paper's
// evaluation (Figures 1-3, 9-12; Tables I-III) and prints them as text
// tables. With -out, each artifact is additionally written as CSV into the
// given directory, which EXPERIMENTS.md references.
//
// Usage:
//
//	paper                 # everything at reference scale
//	paper -fig 10         # one figure
//	paper -scale 1        # quick pass with small workloads
//	paper -out results/   # also write CSV files
//	paper -cache off      # re-simulate every sweep point
//	paper -fig 10 -ff 100000 -warmup 5000   # fast-forward every sweep job
//	paper -fig 10 -sample 2000:5000:50000   # sampled (estimated) sweep
//	paper -fig 10 -scale 1 -cpuprofile cpu.pprof -memprofile mem.pprof
//
// -cpuprofile and -memprofile profile whatever -fig, -table and -ext
// select; inspect with `go tool pprof -top cpu.pprof`.
//
// The sweep-backed figures (10-12) run through the internal/sweep engine
// and, unless -cache off, persist per-point results in a content-addressed
// cache (default: the regreuse/sweeps directory under os.UserCacheDir), so
// a rerun only simulates what is missing.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	regreuse "repro"
	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/stats"
)

var outDir string

// step emits progress lines to stderr around a long-running artifact: one
// when the simulations start and one with the wall-clock (and any extra
// detail, e.g. an IPC summary) when they finish. Keeping these on stderr
// leaves stdout as the clean table/CSV stream.
func step(name string) func(format string, args ...any) {
	start := time.Now()
	fmt.Fprintf(os.Stderr, "[paper] %s: running...\n", name)
	return func(format string, args ...any) {
		extra := fmt.Sprintf(format, args...)
		if extra != "" {
			extra = " (" + extra + ")"
		}
		fmt.Fprintf(os.Stderr, "[paper] %s: done in %s%s\n",
			name, time.Since(start).Round(time.Millisecond), extra)
	}
}

// emit prints t and writes it as a CSV artifact.
func emit(name string, t *stats.Table) {
	fmt.Print(t)
	fmt.Println()
	writeCSV(name, t)
}

// writeCSV writes t to <name>.csv under -out, if set. A failed write exits
// 1, so a partial output directory never passes for a complete one.
func writeCSV(name string, t *stats.Table) {
	if outDir == "" {
		return
	}
	if err := os.WriteFile(filepath.Join(outDir, name+".csv"), []byte(t.CSV()), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "write:", err)
		os.Exit(1)
	}
}

func main() {
	var (
		fig    = flag.Int("fig", 0, "figure number to regenerate (1,2,3,9,10,11,12; 0 = all)")
		table  = flag.Int("table", 0, "table number to regenerate (1,2,3; 0 = all)")
		scale  = flag.Int("scale", 4, "workload scale (1 = small, 4 = reference)")
		out    = flag.String("out", "", "directory for CSV artifacts")
		ext    = flag.Bool("ext", false, "also run the extensions (energy model, reuse-depth ablation)")
		cache  = flag.String("cache", "auto", `sweep result cache: "auto", "off", or a directory`)
		ff     = flag.Uint64("ff", 0, "fast-forward N instructions per sweep job (figures 10-11; 0 = off)")
		warmup = flag.Uint64("warmup", 0, "cache/bpred warmup instructions replayed at the fast-forward boot")
		sample = flag.String("sample", "", "interval-sampling plan warmup:detail:interval for the sweep jobs")
		cpuOut = flag.String("cpuprofile", "", "write a CPU profile of the selected artifacts to this file")
		memOut = flag.String("memprofile", "", "write a heap profile taken after the selected artifacts to this file")
	)
	flag.Parse()
	outDir = *out
	switch *cache {
	case "off":
	case "auto":
		if base, err := os.UserCacheDir(); err == nil {
			regreuse.SetSweepCacheDir(filepath.Join(base, "regreuse", "sweeps"))
		}
	default:
		regreuse.SetSweepCacheDir(*cache)
	}
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	all := *fig == 0 && *table == 0
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	stopProfiles, err := startProfiles(*cpuOut, *memOut)
	if err != nil {
		fail(err)
	}

	if all || *table == 1 {
		fmt.Println("== Table I: system configuration ==")
		printTable1()
	}

	if all || *fig == 1 || *fig == 2 || *fig == 3 {
		done := step("figures 1-3 (motivation analysis)")
		rows, err := regreuse.Motivation(*scale)
		if err != nil {
			fail(err)
		}
		done("%d workloads", len(rows))
		suites := regreuse.AggregateMotivation(rows)
		if all || *fig == 1 {
			fmt.Println("== Figure 1: single-use consumers (% of instructions) ==")
			t := stats.NewTable("suite", "redefining%", "other%", "total%")
			for _, s := range suites {
				t.Row(string(s.Suite), s.SingleUseRedef, s.SingleUseOther, s.SingleUseRedef+s.SingleUseOther)
			}
			emit("fig1_singleuse", t)
		}
		if all || *fig == 2 {
			fmt.Println("== Figure 2: values by consumer count (%) ==")
			t := stats.NewTable("suite", "1", "2", "3", "4", "5", "6+")
			for _, s := range suites {
				t.Row(string(s.Suite), s.ConsumerPct[0], s.ConsumerPct[1], s.ConsumerPct[2],
					s.ConsumerPct[3], s.ConsumerPct[4], s.ConsumerPct[5])
			}
			emit("fig2_consumers", t)
		}
		if all || *fig == 3 {
			fmt.Println("== Figure 3: reusable instructions by chain depth (% of dest insts) ==")
			t := stats.NewTable("suite", "one", "two", "three", "more")
			for _, s := range suites {
				t.Row(string(s.Suite), s.ReusablePct[0], s.ReusablePct[1], s.ReusablePct[2], s.ReusablePct[3])
			}
			emit("fig3_reuse_depth", t)
		}
	}

	if all || *table == 2 {
		fmt.Println("== Table II: area (mm^2, CACTI-substitute model) ==")
		t := stats.NewTable("unit", "configuration", "area mm^2")
		for _, r := range regreuse.AreaTable() {
			t.Row(r.Unit, r.Config, fmt.Sprintf("%.4g", r.MM2))
		}
		emit("table2_area", t)
	}

	if all || *table == 3 {
		fmt.Println("== Table III: equal-area register file configurations ==")
		t := stats.NewTable("baseline regs", "hybrid 0sh/1sh/2sh/3sh", "regs saved %")
		for _, r := range regreuse.EqualAreaTable() {
			t.Row(r.BaselineRegs,
				fmt.Sprintf("%d/%d/%d/%d", r.Hybrid[0], r.Hybrid[1], r.Hybrid[2], r.Hybrid[3]),
				fmt.Sprintf("%.1f", r.SavingsPct))
		}
		emit("table3_configs", t)
	}

	if all || *fig == 9 {
		fmt.Println("== Figure 9: registers with k shadow cells needed to cover X% of execution (SPECfp-like) ==")
		done := step("figure 9 (occupancy study)")
		curves, err := regreuse.OccupancyStudy(*scale)
		if err != nil {
			fail(err)
		}
		done("")
		t := stats.NewTable("shadow level", "50%", "75%", "90%", "95%", "99%", "100%")
		for _, c := range curves {
			t.Row(fmt.Sprintf(">=%d", c.Level), c.Regs[0], c.Regs[1], c.Regs[2], c.Regs[3], c.Regs[4], c.Regs[5])
		}
		emit("fig9_occupancy", t)
	}

	var curves []regreuse.SuiteCurve
	if all || *fig == 10 || *fig == 11 {
		done := step("figures 10-11 (speedup sweep)")
		pts, err := regreuse.SpeedupSweep(regreuse.SweepOptions{
			Scale:       *scale,
			FastForward: *ff,
			Warmup:      *warmup,
			Sample:      *sample,
		})
		if err != nil {
			fail(err)
		}
		curves = regreuse.AggregateSweep(pts)
		var ipcSum float64
		var ipcN int
		for _, c := range curves {
			for _, v := range c.ReuseIPC {
				ipcSum += v
				ipcN++
			}
		}
		if ipcN > 0 {
			done("%d points, mean reuse IPC %.2f", len(pts), ipcSum/float64(ipcN))
		} else {
			done("%d points", len(pts))
		}
		if outDir != "" {
			t := stats.NewTable("workload", "suite", "baseline regs", "base cycles", "reuse cycles", "speedup")
			for _, p := range pts {
				t.Row(p.Workload, string(p.Suite), p.BaselineRegs, p.BaseCycles, p.ReuseCycles, p.Speedup)
			}
			writeCSV("fig10_points", t)
		}
	}
	if all || *fig == 10 {
		fmt.Println("== Figure 10: speedup over equal-area baseline (geomean per suite) ==")
		hdr := []string{"suite"}
		for _, s := range curves[0].Sizes {
			hdr = append(hdr, fmt.Sprintf("%d", s))
		}
		t := stats.NewTable(hdr...)
		for _, c := range curves {
			row := []any{string(c.Suite)}
			for _, v := range c.Speedup {
				row = append(row, v)
			}
			t.Row(row...)
		}
		emit("fig10_speedup", t)
	}
	if all || *fig == 11 {
		fmt.Println("== Figure 11: IPC, baseline vs proposed, per register-file size ==")
		t := stats.NewTable("suite", "size", "baseline IPC", "reuse IPC")
		for _, c := range curves {
			for i, s := range c.Sizes {
				t.Row(string(c.Suite), s, c.BaseIPC[i], c.ReuseIPC[i])
			}
		}
		emit("fig11_ipc", t)
		for _, c := range curves {
			if saving, ok := regreuse.EqualIPCSaving(c, 64); ok && saving > 0 {
				fmt.Printf("  %s: reuse matches the 64-register baseline IPC with a %.1f%% smaller file\n",
					c.Suite, saving)
			}
		}
		fmt.Println()
	}

	if *ext {
		runExtensions(*scale, fail)
	}

	if all || *fig == 12 {
		fmt.Println("== Figure 12: register type predictor outcomes (% of allocations) ==")
		done := step("figure 12 (predictor breakdown)")
		rows, err := regreuse.PredictorBreakdown(*scale)
		if err != nil {
			fail(err)
		}
		done("")
		t := stats.NewTable("suite", "pred-reuse right", "pred-reuse wrong", "pred-normal right", "lost opportunity", "repairs/1k inst")
		for _, r := range rows {
			t.Row(string(r.Suite), r.ReuseRight, r.ReuseWrong, r.NormalRight, r.NormalWrong, r.RepairRate)
		}
		emit("fig12_predictor", t)
	}
	if err := stopProfiles(); err != nil {
		fail(err)
	}
}

// startProfiles starts a CPU profile into cpuFile, if set. The returned
// stop ends it and writes a heap profile into memFile, if set.
func startProfiles(cpuFile, memFile string) (stop func() error, err error) {
	var cpu *os.File
	if cpuFile != "" {
		if cpu, err = os.Create(cpuFile); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if memFile == "" {
			return nil
		}
		f, err := os.Create(memFile)
		if err != nil {
			return err
		}
		runtime.GC() // settle the heap so the profile shows retained allocations
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}, nil
}

// runExtensions prints the beyond-the-paper studies: the register-file
// energy comparison and the reuse-depth ablation.
func runExtensions(scale int, fail func(error)) {
	done := step("extensions (energy, depth ablation, related work)")
	defer done("")
	fmt.Println("== Extension: register-file energy at the 64-register pairing ==")
	t := stats.NewTable("workload", "relative RF energy", "relative runtime")
	for _, name := range []string{"poly_horner", "dgemm", "gmm_score", "qsortint", "fir"} {
		row, err := regreuse.EnergyComparison(name, scale, 64)
		if err != nil {
			fail(err)
		}
		t.Row(name, row.Relative, row.RelativePerf)
	}
	emit("ext_energy", t)

	fmt.Println("== Extension: reuse-chain depth ablation (geomean speedup at 64 regs) ==")
	t2 := stats.NewTable("depth cap", "specfp speedup")
	for depth := 1; depth <= 3; depth++ {
		pts, err := regreuse.SpeedupSweep(regreuse.SweepOptions{
			Sizes: []int{64}, Scale: scale, ReuseDepth: depth,
			Workloads: []string{"poly_horner", "dgemm", "daxpy_chain", "nbody", "lu", "spmv"},
		})
		if err != nil {
			fail(err)
		}
		for _, c := range regreuse.AggregateSweep(pts) {
			if c.Suite == regreuse.SPECfp {
				t2.Row(depth, c.Speedup[0])
			}
		}
	}
	emit("ext_depth_ablation", t2)

	fmt.Println("== Extension: related-work comparison (cycles at the 56-register pairing) ==")
	t3 := stats.NewTable("workload", "baseline", "early release [Ergin/Monreal]", "reuse (paper)")
	for _, name := range []string{"poly_horner", "dgemm", "gmm_score", "spmv"} {
		var cyc [3]uint64
		for i, sch := range []regreuse.Scheme{regreuse.Baseline, regreuse.EarlyRelease, regreuse.Reuse} {
			res, err := regreuse.RunWorkload(name, scale, regreuse.Config{Scheme: sch, FPRegs: sim.RegFile(sch, 56)})
			if err != nil {
				fail(err)
			}
			cyc[i] = res.Cycles
		}
		t3.Row(name, cyc[0], cyc[1], cyc[2])
	}
	emit("ext_schemes", t3)
}

func printTable1() {
	cfg := pipeline.DefaultConfig(pipeline.Baseline)
	t := stats.NewTable("parameter", "value")
	t.Row("ISA", "64-bit ARM-like (31 int + 32 FP logical registers)")
	t.Row("pipeline widths", fmt.Sprintf("fetch/rename/commit %d, issue %d", cfg.FetchWidth, cfg.IssueWidth))
	t.Row("ROB / IQ / fetchQ", fmt.Sprintf("%d / %d / %d", cfg.ROBSize, cfg.IQSize, cfg.FetchQSize))
	t.Row("LQ / SQ", fmt.Sprintf("%d / %d", cfg.LQSize, cfg.SQSize))
	t.Row("branch predictor", "gshare 4K + 2K BTB + 16-deep RAS, ~15-cycle misprediction penalty")
	t.Row("L1I", "48 KB 3-way, 1 cycle")
	t.Row("L1D", "32 KB 2-way, 1 cycle")
	t.Row("L2", "1 MB 16-way, 12 cycles")
	t.Row("line size", "64 B")
	t.Row("TLB", "48-entry fully associative, 30-cycle walk")
	t.Row("prefetcher", "stride, degree 1")
	t.Row("DRAM", "DDR3-1600-like: tCAS=tRCD=tRP=28 cycles, 2 ranks x 8 banks, 8 KB rows")
	fmt.Print(t)
	fmt.Println()
}
