package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime/pprof"
	"time"

	"repro/internal/analysis"
	"repro/internal/area"
	"repro/internal/ckpt"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/regfile"
	"repro/internal/workloads"
)

// equalAreaConfig is the Figure 10 pairing for one kernel at one baseline
// register-file size: the kernel's pressured file is swept — uniform for the
// baseline, the equal-area hybrid of Table III for reuse and early — while
// the other file stays ample at 128, as the sweep engine does.
func equalAreaConfig(name string, sch pipeline.Scheme, size int) pipeline.Config {
	cfg := pipeline.DefaultConfig(sch)
	ample := regfile.Uniform(128, 0)
	swept := regfile.Uniform(size, 0)
	if sch != pipeline.Baseline {
		swept = area.EqualAreaConfig(size, 64)
	}
	if workloads.FPHeavy(name) {
		cfg.FPRegs, cfg.IntRegs = swept, ample
	} else {
		cfg.IntRegs, cfg.FPRegs = swept, ample
	}
	cfg.MaxCycles = 1 << 36
	return cfg
}

// detailedPass simulates every kernel under the three schemes back to back,
// in a seeded kernel and scheme order, so a slow host phase hits all three
// schemes alike.
func (b *bench) detailedPass(ks []*kernel, rng *rand.Rand) {
	for _, i := range rng.Perm(len(ks)) {
		for _, s := range rng.Perm(len(schemes)) {
			b.simulate(ks[i], schemes[s])
			b.calibrate()
		}
	}
}

// simulate runs one kernel to HALT on the detailed core and checks its
// checksum through the committed architectural registers. Only New and Run
// are timed.
func (b *bench) simulate(k *kernel, sch pipeline.Scheme) {
	b.attempted++
	cfg := equalAreaConfig(k.w.Name, sch, k.size)
	name, suite := sch.String(), string(k.w.Suite)
	var core *pipeline.Core
	var err error
	var took time.Duration
	b.labelled(name, func() {
		t0 := time.Now()
		sp := b.tr.begin("pipeline.New", name, suite)
		core = pipeline.New(cfg, k.p)
		b.tr.end(sp, 0)
		sp = b.tr.begin("pipeline.Core.Run", name, suite)
		err = core.Run()
		b.tr.end(sp, core.Stats().Cycles)
		took = time.Since(t0)
	})
	st := core.Stats()
	x, _ := core.ArchRegs()
	if err != nil {
		b.fail("%s/%s@%d: %v", k.w.Name, name, k.size, err)
		return
	}
	if !core.Halted() || x[workloads.CheckReg] != k.w.Want {
		b.fail("%s/%s@%d: checksum %#x, want %#x", k.w.Name, name, k.size, x[workloads.CheckReg], k.w.Want)
		return
	}
	ri, rf := core.RenStats(isa.IntReg), core.RenStats(isa.FPReg)
	js := jobStats{
		cycles:     st.Cycles,
		insts:      st.Committed,
		reuses:     ri.TotalReuses() + rf.TotalReuses(),
		repairs:    ri.Repairs + rf.Repairs,
		recoveries: st.ShadowRecoveries,
	}
	b.det[sch].add(js.insts, took)
	b.cycles[sch] += js.cycles
	key := fmt.Sprintf("detailed %s/%s@%d", k.w.Name, name, k.size)
	if b.record(key, fmt.Sprintf("cycles=%d insts=%d reuses=%d repairs=%d shadow_recoveries=%d",
		js.cycles, js.insts, js.reuses, js.repairs, js.recoveries)) {
		e := &b.exact[sch]
		e.cycles += js.cycles
		e.insts += js.insts
		e.reuses += js.reuses
		e.repairs += js.repairs
		e.recoveries += js.recoveries
	}
}

// labelled runs f under a pprof "scheme" label in traced runs, so the CPU
// profile can be split by scheme; untraced runs call f directly.
func (b *bench) labelled(scheme string, f func()) {
	if b.tr == nil {
		f()
		return
	}
	pprof.Do(context.Background(), pprof.Labels("scheme", scheme), func(context.Context) { f() })
}

// functionalPass runs every kernel through ckpt.FastForward and then
// analysis.AnalyzeProgram, kernel by kernel in a seeded order, so the two
// functional paths share every host phase.
func (b *bench) functionalPass(ks []*kernel, rng *rand.Rand) {
	for _, i := range rng.Perm(len(ks)) {
		n := b.fastForward(ks[i])
		b.analyze(ks[i], n)
		b.calibrate()
	}
}

// fastForward runs a kernel to HALT on the StepN interpreter and checks the
// snapshot's checksum. It returns the instruction count (0 on failure).
func (b *bench) fastForward(k *kernel) uint64 {
	b.attempted++
	t0 := time.Now()
	sp := b.tr.begin("ckpt.FastForward", "", string(k.w.Suite))
	sn, err := ckpt.FastForward(k.p, 1<<62)
	var n uint64
	if err == nil {
		n = sn.InstCount
	}
	b.tr.end(sp, n)
	took := time.Since(t0)
	if err != nil {
		b.fail("fast-forward %s: %v", k.w.Name, err)
		return 0
	}
	if !sn.Halted || sn.X[workloads.CheckReg] != k.w.Want {
		b.fail("fast-forward %s: checksum %#x, want %#x", k.w.Name, sn.X[workloads.CheckReg], k.w.Want)
		return 0
	}
	b.ff.add(n, took)
	b.record(fmt.Sprintf("ff %s@%d", k.w.Name, k.scale), fmt.Sprintf("insts=%d", n))
	return n
}

// analyze runs the streaming Figure 1-3 analysis over a kernel. It must see
// as many instructions as the fast-forward run did.
func (b *bench) analyze(k *kernel, ffInsts uint64) {
	b.attempted++
	t0 := time.Now()
	var rep analysis.Report
	var err error
	ok := true
	if b.tr == nil {
		rep, err = analysis.AnalyzeProgram(k.p, 1<<32)
	} else {
		rep, ok, err = b.tracedAnalyze(k)
	}
	took := time.Since(t0)
	switch {
	case err != nil:
		b.fail("analysis %s: %v", k.w.Name, err)
		return
	case !ok:
		b.fail("analysis %s: checksum mismatch", k.w.Name)
		return
	case ffInsts != 0 && rep.TotalInsts != ffInsts:
		b.fail("analysis %s: %d instructions, fast-forward ran %d", k.w.Name, rep.TotalInsts, ffInsts)
		return
	}
	b.an.add(rep.TotalInsts, took)
	b.record(fmt.Sprintf("analysis %s@%d", k.w.Name, k.scale), fmt.Sprintf("%+v", rep))
}

// tracedAnalyze is analysis.AnalyzeProgram taken apart, so spans separate
// the interpreter's own time from the collector's CommitBatch calls. It also
// checks the emulator's final checksum.
func (b *bench) tracedAnalyze(k *kernel) (analysis.Report, bool, error) {
	suite := string(k.w.Suite)
	c := analysis.NewStream(k.p)
	s := emu.New(k.p)
	sp := b.tr.begin("emu.RunToHaltBatch", "", suite)
	n, err := s.RunToHaltBatch(1<<32, spanSink{b.tr, c, suite})
	b.tr.end(sp, n)
	if err != nil {
		return analysis.Report{}, false, err
	}
	sp = b.tr.begin("analysis.Stream.Finalize", "", suite)
	rep := c.Finalize()
	b.tr.end(sp, 0)
	return rep, s.X[workloads.CheckReg] == k.w.Want, nil
}

// spanSink forwards commit batches to the streaming collector inside a span.
type spanSink struct {
	tr    *tracer
	c     *analysis.Stream
	suite string
}

func (s spanSink) CommitBatch(start uint64, rows []uint32) {
	sp := s.tr.begin("analysis.Stream.CommitBatch", "", s.suite)
	s.c.CommitBatch(start, rows)
	s.tr.end(sp, uint64(len(rows)))
}
