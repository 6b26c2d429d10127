package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"sort"
	"time"

	"repro/internal/area"
	"repro/internal/asm"
	"repro/internal/pipeline"
	"repro/internal/prog"
	"repro/internal/workloads"
)

// phase is one layer-focused kind of work a round runs.
type phase int

const (
	detailedPhase phase = iota
	functionalPhase
	sweepPhase
)

// workload names the phase that repeats until the run's time is used up.
// Every round also runs one small, fixed slice of the two other phases, so
// every run reports every end-to-end metric while the primary phase takes
// most of the host time.
type workload struct {
	primary    phase
	detailed   []string // kernels the detailed phase simulates, at test scale
	functional []string // kernels the functional phase runs, at funcScale
	funcScale  int
	grids      func(sizes []int) []gridSpec
}

// companionKernels give the detailed companion slice two short kernels per
// suite (448 k instructions per scheme at test scale) whose IPC barely
// depends on the register-file size: with eight kernels, the sizes the seed
// deals out would otherwise move the companion ipc by 10 % or more between
// seeds (poly_horner, iir and gmm_score double their cycles from 112 to 48
// registers). The first four — a pointer chase, dense FP, a media filter
// and a cognitive kernel — are the sweep companion's.
var companionKernels = []string{"listwalk", "dgemm", "sobel", "dnn_mlp", "qsortint", "daxpy_chain", "adpcm_enc", "conv2d"}

var workloadTable = map[string]workload{
	"detailed-mix":   {primary: detailedPhase, detailed: workloads.Names(), functional: workloads.Names(), funcScale: 1, grids: companionGrids},
	"functional-ref": {primary: functionalPhase, detailed: companionKernels, functional: workloads.Names(), funcScale: 4, grids: companionGrids},
	"sweep-service":  {primary: sweepPhase, detailed: companionKernels, functional: workloads.Names(), funcScale: 1, grids: serviceGrids},
}

var schemes = [...]pipeline.Scheme{pipeline.Baseline, pipeline.Reuse, pipeline.EarlyRelease}

// kernel is one checksum-verified program, generated and assembled at one
// scale.
type kernel struct {
	w     workloads.Workload
	p     *prog.Program
	scale int
	size  int // Table III register-file size the detailed phase uses
}

type kernels struct{ detailed, functional []*kernel }

// jobStats are one detailed simulation's exact statistics.
type jobStats struct {
	cycles, insts, reuses, repairs, recoveries uint64
}

type bench struct {
	o         options
	wl        workload
	tr        *tracer // nil outside traced phases
	gridSizes []int   // Table III sizes the seed picked for the sweep grids

	attempted, failed int64
	digest            map[string]string // simulated statistics by job

	det        [len(schemes)]rateAcc
	cycles     [len(schemes)]uint64
	exact      [len(schemes)]jobStats // sums over distinct jobs
	ff, an     rateAcc
	cold, warm rateAcc // n counts grid pairs submitted
	sweepTot   struct{ coldExec, coldHits, warmExec, warmHits, warmJobs int }
	jobMS      map[string][]float64 // sweep job durations by "cold"/"warm"
	sweepRSS   int64                // KiB, largest sweepd child
	calib      []float64            // ms per calibration loop
	lastCalib  time.Duration

	primaryHost, roundHost time.Duration // host time of primary phases and whole rounds
}

func newBench(o options, wl workload) *bench {
	sizes := area.Table3Sizes()
	perm := rand.New(rand.NewSource(o.seed + 1)).Perm(len(sizes))
	return &bench{
		o:         o,
		wl:        wl,
		gridSizes: []int{sizes[perm[0]], sizes[perm[1]]},
		digest:    map[string]string{},
		jobMS:     map[string][]float64{},
	}
}

// roundRNG orders one round's kernels and schemes. A traced run replays
// round 0's order untraced first, so the order is a function of the round.
func roundRNG(seed int64, round int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(round)))
}

// loader generates, assembles and pre-decodes kernels, each name and scale
// once, with spans around the generate and assemble calls.
type loader struct {
	tr    *tracer
	built map[string]*kernel
}

func (l *loader) load(names []string, scale int) ([]*kernel, error) {
	out := make([]*kernel, 0, len(names))
	for _, n := range names {
		key := fmt.Sprintf("%s@%d", n, scale)
		if k, ok := l.built[key]; ok {
			out = append(out, k)
			continue
		}
		sp := l.tr.begin("workloads.generate", n, "")
		w, ok := workloads.ByName(n, scale)
		l.tr.end(sp, 0)
		if !ok {
			return nil, fmt.Errorf("unknown kernel %q", n)
		}
		sp = l.tr.begin("asm.Assemble", n, "")
		p, err := asm.Assemble(w.Source)
		l.tr.end(sp, uint64(len(w.Source)))
		if err != nil {
			return nil, fmt.Errorf("assemble %s: %w", n, err)
		}
		k := &kernel{w: w, p: p, scale: scale}
		l.built[key] = k
		out = append(out, k)
	}
	return out, nil
}

// setup loads the kernels of the primary phase and then, unless
// primaryOnly, those of the in-process companion slices. Spans cover only
// the primary phase's kernels: that is the set-up setup_s times.
func (b *bench) setup(primaryOnly bool) (kernels, error) {
	l := &loader{tr: b.tr, built: map[string]*kernel{}}
	var ks kernels
	var err error
	switch b.wl.primary {
	case detailedPhase:
		ks.detailed, err = l.load(b.wl.detailed, 1)
	case functionalPhase:
		ks.functional, err = l.load(b.wl.functional, b.wl.funcScale)
	}
	if err != nil || primaryOnly {
		return ks, err
	}
	l.tr = nil
	if ks.detailed == nil {
		if ks.detailed, err = l.load(b.wl.detailed, 1); err != nil {
			return ks, err
		}
	}
	if ks.functional == nil {
		ks.functional, err = l.load(b.wl.functional, b.wl.funcScale)
	}
	return ks, err
}

// setupPasses is how many set-up passes an untraced run times; setup_s is
// their median. A sweepd start takes about 4 ms, so process-start jitter
// needs this many passes to steady it.
const setupPasses = 9

// timeSetups times setupPasses set-up passes, each at the reference host
// speed measured by the calibration loops on either side of it.
func (b *bench) timeSetups() ([]float64, error) {
	out := make([]float64, 0, setupPasses)
	before := calibLoop()
	for i := 0; i < setupPasses; i++ {
		took, err := b.setupPass()
		if err != nil {
			return nil, err
		}
		after := calibLoop()
		out = append(out, took.Seconds()*speedFactor(before, after))
		before = after
	}
	return out, nil
}

// setupPass times one cold set-up of the primary phase, from process start
// until its first round could begin. For sweep-service that is sweepd's
// start until its first 200 on GET /sweeps; sweepd is stopped after the
// timed span. The in-process workloads start the benchmark itself with
// -setup-probe, which generates, assembles and pre-decodes the primary
// phase's kernels in a fresh process, so nothing is memoized yet.
func (b *bench) setupPass() (time.Duration, error) {
	if b.wl.primary == sweepPhase {
		d, err := b.startSweepd()
		if err != nil {
			return 0, err
		}
		b.stopSweepd(d)
		return d.ready, nil
	}
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "-setup-probe", "-workload", b.o.workload)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, fmt.Errorf("start set-up probe: %w", err)
	}
	line, rerr := bufio.NewReader(out).ReadString('\n')
	took := time.Since(t0)
	_, _ = io.Copy(io.Discard, out)
	if err := cmd.Wait(); err != nil || rerr != nil || line != "ready\n" {
		return 0, fmt.Errorf("set-up probe said %q (%v, %v)", line, rerr, err)
	}
	return took, nil
}

// assignSizes gives each detailed kernel a Table III register-file size: the
// seed permutes the kernels and the sizes are dealt out in turn, so every
// size is used and the seed decides which kernel gets which.
func (b *bench) assignSizes(ks []*kernel) {
	sizes := area.Table3Sizes()
	for k, i := range rand.New(rand.NewSource(b.o.seed)).Perm(len(ks)) {
		ks[i].size = sizes[k%len(sizes)]
	}
}

// round runs the primary phase once over its kernels and one slice of each
// companion phase. It returns the primary phase's host time and adds it and
// the round's to the run's host-share totals.
func (b *bench) round(ks kernels, rng *rand.Rand) (time.Duration, error) {
	if b.lastCalib == 0 {
		b.calibrate()
	}
	t0 := time.Now()
	var err error
	switch b.wl.primary {
	case detailedPhase:
		b.detailedPass(ks.detailed, rng)
	case functionalPhase:
		b.functionalPass(ks.functional, rng)
	case sweepPhase:
		err = b.sweepPass(b.wl.grids(b.gridSizes))
	}
	primary := time.Since(t0)
	if err != nil {
		return primary, err
	}
	if b.wl.primary != detailedPhase {
		b.detailedPass(ks.detailed, rng)
	}
	if b.wl.primary != functionalPhase {
		b.functionalPass(ks.functional, rng)
	}
	if b.wl.primary != sweepPhase {
		err = b.sweepPass(b.wl.grids(b.gridSizes))
	}
	b.primaryHost += primary
	b.roundHost += time.Since(t0)
	return primary, err
}

// fail counts one failed operation and says why on standard error.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAIL "+format+"\n", args...)
}

// record adds one simulated statistic to the run's digest. A job that
// repeats must reproduce its statistics exactly; a mismatch is a failed
// operation. It reports whether key was new.
func (b *bench) record(key, val string) bool {
	if prev, ok := b.digest[key]; ok {
		if prev != val {
			b.fail("%s: statistics changed between rounds: %s, then %s", key, prev, val)
		}
		return false
	}
	b.digest[key] = val
	return true
}

// digestHex hashes the recorded statistics in key order, so it depends on
// the set of jobs and their results, not on the order they ran in.
func digestHex(m map[string]string) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s %s\n", k, m[k])
	}
	return hex.EncodeToString(h.Sum(nil))
}
