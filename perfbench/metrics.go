package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"repro/internal/workloads"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEndDefs are the metrics an untraced run prints, in BENCHMARK.json
// order.
func endToEndDefs() []metricDef {
	d := []metricDef{{"setup_s", "s"}, {"peak_rss_mb", "MB"}}
	for _, s := range schemes {
		d = append(d, metricDef{"minst_s." + s.String(), "Minst/s"})
	}
	for _, s := range schemes {
		d = append(d, metricDef{"ipc." + s.String(), "inst/cycle"})
	}
	return append(d, metricDef{"minst_s.ff", "Minst/s"}, metricDef{"minst_s.analysis", "Minst/s"},
		metricDef{"grid_cold_s", "s"}, metricDef{"grid_warm_s", "s"})
}

// perLayerDefs are the metrics a traced run prints, in BENCHMARK.json order.
func perLayerDefs() []metricDef {
	var d []metricDef
	add := func(name, unit string) { d = append(d, metricDef{name, unit}) }
	for _, s := range schemes {
		add("pipeline.new_us."+s.String(), "us")
	}
	for _, s := range schemes {
		add("pipeline.ns_per_cycle."+s.String(), "ns/cycle")
	}
	for _, su := range workloads.Suites() {
		add("pipeline.ns_per_cycle."+string(su), "ns/cycle")
	}
	for _, s := range schemes {
		add("pipeline.cycles."+s.String(), "cycles")
	}
	for _, s := range schemes {
		add("pipeline.insts."+s.String(), "insts")
	}
	add("rename.reuses", "count")
	add("rename.repairs", "count")
	add("pipeline.shadow_recoveries", "count")
	for _, s := range schemes {
		add("rename.mrenames_s."+s.String(), "Mrename/s")
	}
	for _, s := range schemes {
		for _, st := range stageNames {
			add("stage."+st+".share."+s.String(), "%")
		}
	}
	add("ckpt.ff_ns_per_inst", "ns/inst")
	add("emu.batch_ns_per_inst", "ns/inst")
	add("analysis.stream_ns_per_inst", "ns/inst")
	add("analysis.finalize_us", "us")
	add("workloads.generate_s", "s")
	add("asm.assemble_s", "s")
	add("sweep.submit_ms", "ms")
	add("sweep.job_ms.cold.p50", "ms")
	add("sweep.job_ms.cold.tail", "ms")
	add("sweep.job_ms.warm.p50", "ms")
	add("sweep.job_ms.warm.tail", "ms")
	add("sweep.results_ms", "ms")
	add("sweep.results_kb", "KiB")
	add("sweep.executed", "jobs")
	add("sweep.cache_hits", "jobs")
	add("sweep.hit_ratio.warm", "ratio")
	add("go.alloc_b_per_inst", "B/inst")
	add("go.gc_cycles", "count")
	add("host.calib_ms", "ms")
	add("trace.overhead_pct", "%")
	return d
}

// fill returns a metric for every def, taking values from vals (0 where a
// run did not exercise the layer).
func fill(defs []metricDef, vals map[string]float64) map[string]Metric {
	m := make(map[string]Metric, len(defs))
	for _, d := range defs {
		m[d.name] = Metric{Value: vals[d.name], Unit: d.unit}
	}
	return m
}

// endToEnd computes the untraced run's metrics. Host-time metrics are
// totals over the whole interleaved run, at the reference host speed; ipc
// is exact. The same metrics at the measured host speed go to an info line.
func (b *bench) endToEnd(setups []float64) map[string]Metric {
	v := map[string]float64{
		"setup_s":          median(setups),
		"peak_rss_mb":      b.peakRSSMB(),
		"minst_s.ff":       b.ff.mips(),
		"minst_s.analysis": b.an.mips(),
		"grid_cold_s":      b.cold.mean(),
		"grid_warm_s":      b.warm.mean(),
	}
	raw := fmt.Sprintf("minst_s.ff=%.4g minst_s.analysis=%.4g grid_cold_s=%.4g grid_warm_s=%.4g",
		b.ff.rawMIPS(), b.an.rawMIPS(), 1/perSecond(b.cold.n, b.cold.raw), 1/perSecond(b.warm.n, b.warm.raw))
	for _, s := range schemes {
		v["minst_s."+s.String()] = b.det[s].mips()
		raw += fmt.Sprintf(" minst_s.%s=%.4g", s, b.det[s].rawMIPS())
		if b.cycles[s] > 0 {
			v["ipc."+s.String()] = float64(b.det[s].n) / float64(b.cycles[s])
		}
	}
	fmt.Printf("info measured-speed %s host.calib_ms=%.4g calib_samples=%d\n", raw, median(b.calib), len(b.calib))
	return fill(endToEndDefs(), v)
}

// peakRSSMB is the peak RSS of the process that simulates the primary
// phase: sweepd for sweep-service, the benchmark itself otherwise.
func (b *bench) peakRSSMB() float64 {
	if b.wl.primary == sweepPhase {
		return float64(b.sweepRSS) / 1024
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// inProcessInsts counts the simulated instructions the benchmark process
// has executed itself.
func (b *bench) inProcessInsts() uint64 {
	n := b.ff.n + b.an.n
	for _, a := range b.det {
		n += a.n
	}
	return n
}

// tracedRun measures the rounds with spans, pprof labels and a CPU profile
// on, then replays the last traced round untraced, in the same order and
// as warm; the difference between those two is trace.overhead_pct. It then
// replays the renamers on their own and derives the per-layer table.
func (b *bench) tracedRun(ks kernels) (map[string]Metric, error) {
	tr := b.tr
	base := filepath.Join(b.o.out, fmt.Sprintf("%s-seed%d", b.o.workload, b.o.seed))
	f, err := os.Create(base + ".cpu.pprof")
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	insts0 := b.inProcessInsts()
	var traced time.Duration
	last := 0
	deadline := time.Now().Add(time.Duration(b.o.seconds) * time.Second)
	for ; ; last++ {
		d, err := b.round(ks, roundRNG(b.o.seed, last))
		if err != nil {
			pprof.StopCPUProfile()
			f.Close()
			return nil, err
		}
		traced = d
		if time.Now().After(deadline) {
			break
		}
	}
	runtime.ReadMemStats(&ms1)
	insts := b.inProcessInsts() - insts0
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return nil, err
	}
	b.tr = nil
	untraced, err := b.round(ks, roundRNG(b.o.seed, last))
	b.tr = tr
	if err != nil {
		return nil, err
	}
	renames := b.replayRenamers(ks.detailed, roundRNG(b.o.seed, -1))

	data, err := os.ReadFile(base + ".cpu.pprof")
	if err != nil {
		return nil, err
	}
	samples, err := parseProfile(data)
	if err != nil {
		return nil, fmt.Errorf("read CPU profile: %w", err)
	}
	rules, err := parseStageMap(stageMap)
	if err != nil {
		return nil, err
	}
	shares := stageShares(samples, rules, "scheme")
	if err := tr.writeChrome(base + ".trace.json"); err != nil {
		return nil, err
	}
	fmt.Printf("info spans=%s.trace.json profile=%s.cpu.pprof span_count=%d\n", base, base, len(tr.spans))

	v := map[string]float64{}
	for _, s := range schemes {
		n := s.String()
		nw := tr.sum("pipeline.New", n, "")
		v["pipeline.new_us."+n] = perUnit(nw.dur, uint64(nw.count)) / 1e3
		run := tr.sum("pipeline.Core.Run", n, "")
		v["pipeline.ns_per_cycle."+n] = perUnit(run.self, run.work)
		v["pipeline.cycles."+n] = float64(b.exact[s].cycles)
		v["pipeline.insts."+n] = float64(b.exact[s].insts)
		v["rename.reuses"] += float64(b.exact[s].reuses)
		v["rename.repairs"] += float64(b.exact[s].repairs)
		v["pipeline.shadow_recoveries"] += float64(b.exact[s].recoveries)
		v["rename.mrenames_s."+n] = renames[s]
		for st, pct := range shares[n] {
			v["stage."+st+".share."+n] = pct
		}
	}
	for _, su := range workloads.Suites() {
		run := tr.sum("pipeline.Core.Run", "", string(su))
		v["pipeline.ns_per_cycle."+string(su)] = perUnit(run.self, run.work)
	}
	ff := tr.sum("ckpt.FastForward", "", "")
	v["ckpt.ff_ns_per_inst"] = perUnit(ff.self, ff.work)
	batch := tr.sum("emu.RunToHaltBatch", "", "")
	v["emu.batch_ns_per_inst"] = perUnit(batch.self, batch.work)
	commit := tr.sum("analysis.Stream.CommitBatch", "", "")
	v["analysis.stream_ns_per_inst"] = perUnit(commit.self, commit.work)
	fin := tr.sum("analysis.Stream.Finalize", "", "")
	v["analysis.finalize_us"] = perUnit(fin.dur, uint64(fin.count)) / 1e3
	v["workloads.generate_s"] = tr.sum("workloads.generate", "", "").dur.Seconds()
	v["asm.assemble_s"] = tr.sum("asm.Assemble", "", "").dur.Seconds()

	sub := tr.sum("sweep.POST /sweeps", "", "")
	v["sweep.submit_ms"] = perUnit(sub.dur, uint64(sub.count)) / 1e6
	v["sweep.job_ms.cold.p50"] = median(b.jobMS["cold"])
	v["sweep.job_ms.cold.tail"] = tail(b.jobMS["cold"])
	v["sweep.job_ms.warm.p50"] = median(b.jobMS["warm"])
	v["sweep.job_ms.warm.tail"] = tail(b.jobMS["warm"])
	res := tr.sum("sweep.GET results", "", "")
	v["sweep.results_ms"] = perUnit(res.dur, uint64(res.count)) / 1e6
	if res.count > 0 {
		v["sweep.results_kb"] = float64(res.work) / float64(res.count) / 1024
	}
	if n := float64(b.cold.n); n > 0 {
		v["sweep.executed"] = float64(b.sweepTot.coldExec+b.sweepTot.warmExec) / n
		v["sweep.cache_hits"] = float64(b.sweepTot.coldHits+b.sweepTot.warmHits) / n
	}
	if b.sweepTot.warmJobs > 0 {
		v["sweep.hit_ratio.warm"] = float64(b.sweepTot.warmHits) / float64(b.sweepTot.warmJobs)
	}
	if insts > 0 {
		v["go.alloc_b_per_inst"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(insts)
	}
	v["go.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	v["host.calib_ms"] = median(b.calib)
	if untraced > 0 {
		v["trace.overhead_pct"] = 100 * (traced.Seconds() - untraced.Seconds()) / untraced.Seconds()
	}
	return fill(perLayerDefs(), v), nil
}

// perUnit returns d in nanoseconds per unit of work (0 without work).
func perUnit(d time.Duration, work uint64) float64 {
	if work == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(work)
}

// median returns the middle of xs (the mean of the middle two for an even
// count), 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs that still has at least ten
// samples beyond it — the value with exactly ten larger ones — or the
// maximum when there are ten samples or fewer.
func tail(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := len(s) - 11
	if i < 0 {
		i = len(s) - 1
	}
	return s[i]
}
