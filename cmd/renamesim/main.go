// Command renamesim simulates one workload on the out-of-order core under
// either renaming scheme and prints detailed statistics.
//
// Usage:
//
//	renamesim -workload dgemm -scheme reuse -intregs 64 -fpregs 64 -scale 4
//	renamesim -workload dgemm -json -o run.json
//	renamesim -workload dgemm -metrics-interval 1000
//	renamesim -workload dgemm -scale 4 -ff 100000 -warmup 5000 -ckpt-dir /tmp/ckpt
//	renamesim -workload dgemm -scale 4 -sample 2000:5000:50000
//	renamesim -workload poly_horner -pipeview 30 -skip 100
//	renamesim -workload poly_horner -pipeview 30 -chrome out.json
//	renamesim -list
//	renamesim -asm program.s -scheme baseline
//
// -pipeview prints a Kanata-style pipeline view: one line per committed
// instruction with its per-cycle stage timeline and renaming decision, the
// quickest way to watch the reuse scheme share physical registers. -chrome
// writes the run as Chrome trace_event JSON (chrome://tracing or Perfetto).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	regreuse "repro"
	"repro/internal/asm"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/rename"
	"repro/internal/sim"
	"repro/internal/stats"
)

// runJSON is the machine-readable run artifact emitted by -json: the
// identifying parameters, the derived headline numbers, the full pipeline
// and renamer statistics, and — when a metrics observer was attached — its
// final snapshot.
type runJSON struct {
	Workload   string          `json:"workload"`
	Scheme     string          `json:"scheme"`
	Scale      int             `json:"scale"`
	Cycles     uint64          `json:"cycles"`
	Insts      uint64          `json:"instructions"`
	IPC        float64         `json:"ipc"`
	MPKI       float64         `json:"mpki"`
	ChecksumOK bool            `json:"checksum_ok"`
	Pipeline   *pipeline.Stats `json:"pipeline"`
	RenameInt  *rename.Stats   `json:"rename_int"`
	RenameFP   *rename.Stats   `json:"rename_fp"`
	Metrics    *obs.Snapshot   `json:"metrics,omitempty"`

	FFInsts uint64                   `json:"ff_insts,omitempty"`
	Sampled *regreuse.SampleEstimate `json:"sampled,omitempty"`
}

func main() {
	var (
		workload = flag.String("workload", "dgemm", "workload name (see -list)")
		list     = flag.Bool("list", false, "list available workloads and exit")
		scheme   = flag.String("scheme", "reuse", "renaming scheme: baseline | reuse | early")
		scale    = flag.Int("scale", 1, "workload scale (1 = small, 4 = reference)")
		intRegs  = flag.Int("intregs", 128, "integer physical registers (baseline-equivalent size)")
		fpRegs   = flag.Int("fpregs", 128, "floating-point physical registers (baseline-equivalent size)")
		asmFile  = flag.String("asm", "", "run an assembly file instead of a named workload")
		oracle   = flag.Bool("oracle", true, "run the lockstep architectural oracle")
		irq      = flag.Uint64("interrupt", 0, "timer interrupt period in cycles (0 = off)")
		depth    = flag.Int("reusedepth", 0, "cap reuse-chain depth 1..3 (0 = paper default 3)")
		jsonOut  = flag.Bool("json", false, "emit the run as JSON instead of the stats table")
		outFile  = flag.String("o", "", "write -json output to this file instead of stdout")
		interval = flag.Uint64("metrics-interval", 0, "stream a metrics CSV snapshot row every N cycles (0 = off)")
		ff       = flag.Uint64("ff", 0, "fast-forward N instructions functionally before detailed simulation (0 = off)")
		warmup   = flag.Uint64("warmup", 0, "replay the last N fast-forwarded instructions into caches/bpred at boot")
		sample   = flag.String("sample", "", "interval-sampling plan warmup:detail:interval (mutually exclusive with -ff)")
		sampleW  = flag.Int("sample-workers", 1, "goroutines for sampled detail intervals (<0 = GOMAXPROCS); results are identical for every value")
		ckptDir  = flag.String("ckpt-dir", "", "cache fast-forward checkpoints in this directory")
		pipeview = flag.Uint64("pipeview", 0, "print a pipeline view of N committed instructions and stop the run there (0 = off)")
		skip     = flag.Uint64("skip", 0, "with -pipeview, committed instructions to run before the view starts")
		chrome   = flag.String("chrome", "", "write a Chrome trace_event JSON file of the run")
	)
	flag.Parse()

	if *list {
		for _, n := range regreuse.Workloads() {
			fmt.Println(n)
		}
		return
	}

	cfg := regreuse.Config{
		CheckOracle:    *oracle,
		InterruptEvery: *irq,
		ReuseDepth:     *depth,
		FastForward:    *ff,
		Warmup:         *warmup,
		Sample:         *sample,
		SampleWorkers:  *sampleW,
		CkptDir:        *ckptDir,
	}
	sch, serr := regreuse.ParseScheme(*scheme)
	if serr != nil {
		fmt.Fprintln(os.Stderr, serr)
		os.Exit(2)
	}
	cfg.Scheme = sch
	cfg.IntRegs, cfg.FPRegs = sim.RegFile(sch, *intRegs), sim.RegFile(sch, *fpRegs)

	// A metrics observer feeds both the -json snapshot and the periodic CSV
	// stream. The CSV and the pipeline view share stdout with the table
	// output unless -json owns stdout, in which case they move to stderr.
	textW := io.Writer(os.Stdout)
	if *jsonOut && *outFile == "" {
		textW = os.Stderr
	}
	var (
		observers []obs.Observer
		met       *obs.Metrics
		view      *obs.PipeView
		tracer    *obs.Tracer
	)
	if *jsonOut || *interval > 0 {
		met = obs.NewMetrics(*interval, textW)
		observers = append(observers, met)
	}
	if *pipeview > 0 {
		cfg.MaxInsts = *skip + *pipeview
		view = obs.NewPipeView(textW, *skip, *pipeview)
		observers = append(observers, view)
	}
	if *chrome != "" {
		// Size the ring to hold the viewed window; squashed wrong-path
		// work inflates the in-flight count, so leave headroom.
		tracer = obs.NewTracer(int(*skip+*pipeview)*2 + 1024)
		observers = append(observers, tracer)
	}
	cfg.Observer = obs.Combine(observers...)

	var (
		res regreuse.Result
		err error
	)
	if *asmFile != "" {
		src, rerr := os.ReadFile(*asmFile)
		if rerr != nil {
			fmt.Fprintln(os.Stderr, rerr)
			os.Exit(1)
		}
		p, aerr := asm.Assemble(string(src))
		if aerr != nil {
			fmt.Fprintln(os.Stderr, aerr)
			os.Exit(1)
		}
		res, err = regreuse.RunProgram(p, cfg)
	} else {
		res, err = regreuse.RunWorkload(*workload, *scale, cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if met != nil && met.Err() != nil {
		fmt.Fprintln(os.Stderr, met.Err())
		os.Exit(1)
	}
	if view != nil {
		if err := view.Err(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintln(textW)
	}
	if tracer != nil {
		if err := writeChrome(*chrome, tracer); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(textW, "chrome trace: %s (%d records, %d evicted in flight)\n",
			*chrome, len(tracer.Records()), tracer.Evicted())
	}

	if *jsonOut {
		out := runJSON{
			Workload:   res.Workload,
			Scheme:     fmt.Sprint(res.Scheme),
			Scale:      *scale,
			Cycles:     res.Cycles,
			Insts:      res.Insts,
			IPC:        res.IPC,
			MPKI:       res.MPKI,
			ChecksumOK: res.ChecksumOK,
			Pipeline:   res.Pipeline,
			RenameInt:  res.RenInt,
			RenameFP:   res.RenFP,
			FFInsts:    res.FFInsts,
			Sampled:    res.Sampled,
		}
		if met != nil {
			snap := met.R.Snapshot()
			out.Metrics = &snap
		}
		buf, merr := json.MarshalIndent(out, "", "  ")
		if merr != nil {
			fmt.Fprintln(os.Stderr, merr)
			os.Exit(1)
		}
		buf = append(buf, '\n')
		if *outFile != "" {
			if werr := os.WriteFile(*outFile, buf, 0o644); werr != nil {
				fmt.Fprintln(os.Stderr, werr)
				os.Exit(1)
			}
		} else if _, werr := os.Stdout.Write(buf); werr != nil {
			fmt.Fprintln(os.Stderr, werr)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("workload   %s (%s scheme, int %v, fp %v)\n",
		res.Workload, res.Scheme, cfg.IntRegs, cfg.FPRegs)
	t := stats.NewTable("metric", "value")
	t.Row("cycles", res.Cycles)
	t.Row("instructions", res.Insts)
	t.Row("IPC", res.IPC)
	if res.FFInsts > 0 {
		t.Row("fast-forwarded insts", res.FFInsts)
	}
	if s := res.Sampled; s != nil {
		t.Row("sample plan", s.Plan)
		t.Row("sampled intervals", s.Samples)
		t.Row("IPC estimate", fmt.Sprintf("%.3f ± %.3f", s.IPCMean, s.IPCStdErr))
		t.Row("reuse-rate estimate", fmt.Sprintf("%.4f ± %.4f", s.ReuseMean, s.ReuseStdErr))
		t.Row("detail coverage", stats.Pct(s.Coverage))
	}
	t.Row("branch MPKI", res.MPKI)
	t.Row("checksum ok", res.ChecksumOK)
	t.Row("allocations", res.Allocations)
	t.Row("reuses", res.Reuses)
	if res.Allocations+res.Reuses > 0 {
		t.Row("reuse fraction", stats.Pct(float64(res.Reuses)/float64(res.Allocations+res.Reuses)))
	}
	t.Row("reuse same-logical", res.ReuseSameLog)
	t.Row("reuse speculative", res.ReusePredict)
	t.Row("reuses ver1/2/3", fmt.Sprintf("%d/%d/%d", res.ReusesByVer[1], res.ReusesByVer[2], res.ReusesByVer[3]))
	t.Row("repair micro-ops", res.MicroOps)
	t.Row("rename stalls (no reg)", res.StallNoReg)
	t.Row("rename stalls (ROB)", res.StallROB)
	t.Row("rename stalls (IQ)", res.StallIQ)
	t.Row("page faults", res.PageFaults)
	t.Row("interrupts", res.Interrupts)
	t.Row("shadow recoveries", res.ShadowRecoveries)
	h := res.Hier
	if h != nil {
		t.Row("L1I miss rate", stats.Pct(h.L1I.MissRate()))
		t.Row("L1D miss rate", stats.Pct(h.L1D.MissRate()))
		t.Row("L2 miss rate", stats.Pct(h.L2.MissRate()))
		t.Row("TLB misses", h.TLB.Misses)
		t.Row("DRAM accesses", h.DRAM.Accesses)
		t.Row("DRAM row-hit rate", stats.Pct(h.DRAM.RowHitRate()))
		if h.Pref != nil {
			t.Row("prefetches issued", h.Pref.Issued)
		}
	}
	fmt.Print(t)
}

// writeChrome writes tracer's records to path as Chrome trace_event JSON.
func writeChrome(path string, tracer *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tracer.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
