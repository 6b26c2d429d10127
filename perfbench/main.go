// Command perfbench is the repository's layered benchmark. It drives the
// simulator only through the entry points its users call — pipeline.New and
// Core.Run, ckpt.FastForward, analysis.AnalyzeProgram, and the sweepd HTTP
// API — checks every result against the kernels' reference checksums, and
// prints one JSON line last: the end-to-end metrics of an untraced run, or,
// with -trace 1, the per-layer metrics of a traced run. README.md describes
// the workloads, the metrics and the host noise they are built around.
//
//	bash perfbench/run.sh --workload detailed-mix --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	out      string
	sweepd   string
	probe    bool // set up the primary phase, say "ready" and exit
}

// Result is the line the benchmark prints last.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Metric is one measured value and its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "detailed-mix | functional-ref | sweep-service")
	flag.Int64Var(&o.seed, "seed", 1, "input seed: kernel and scheme order, register-file sizes")
	flag.IntVar(&o.seconds, "seconds", 25, "how long the primary phase repeats")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run that prints the per-layer metrics")
	flag.StringVar(&o.out, "out", ".bench_build/perfbench", "directory for sweepd state, span files and profiles")
	flag.StringVar(&o.sweepd, "sweepd", ".bench_build/perfbench/bin/sweepd", "sweepd binary built from this checkout")
	flag.BoolVar(&o.probe, "setup-probe", false, `set up the workload's primary phase, print "ready" and exit (one setup_s pass)`)
	flag.Parse()
	if o.probe {
		if err := probe(o); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(o options) (*Result, error) {
	wl, ok := workloadTable[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown -workload %q (want detailed-mix, functional-ref or sweep-service)", o.workload)
	}
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		return nil, fmt.Errorf("-seconds must be at least 1 and -trace 0 or 1")
	}
	if err := os.MkdirAll(filepath.Join(o.out, "state"), 0o755); err != nil {
		return nil, err
	}
	b := newBench(o, wl)
	var setups []float64
	if o.trace == 0 {
		var err error
		if setups, err = b.timeSetups(); err != nil {
			return nil, err
		}
	} else {
		b.tr = newTracer(fmt.Sprintf("%s/seed-%d", o.workload, o.seed))
	}
	ks, err := b.setup(false)
	if err != nil {
		return nil, err
	}
	b.assignSizes(ks.detailed)
	fmt.Printf("info sweepd_state_fs=%s\n", fsType(filepath.Join(o.out, "state")))

	if o.trace == 1 {
		m, err := b.tracedRun(ks)
		if err != nil {
			return nil, err
		}
		return b.result(m), nil
	}
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	for r := 0; ; r++ {
		if _, err := b.round(ks, roundRNG(o.seed, r)); err != nil {
			return nil, err
		}
		if time.Now().After(deadline) {
			break
		}
	}
	return b.result(b.endToEnd(setups)), nil
}

// probe is one setup_s pass in a fresh process: it sets up the primary
// phase's kernels and says "ready" on standard output.
func probe(o options) error {
	wl, ok := workloadTable[o.workload]
	if !ok || wl.primary == sweepPhase {
		return fmt.Errorf("no set-up probe for -workload %q", o.workload)
	}
	if _, err := newBench(o, wl).setup(true); err != nil {
		return err
	}
	fmt.Println("ready")
	return nil
}

// result prints the digest of every simulated statistic the run produced
// and the share of host time the primary phase took, and wraps the metrics
// with the run's operation counts.
func (b *bench) result(m map[string]Metric) *Result {
	fmt.Printf("digest %s seed=%d %s entries=%d\n", b.o.workload, b.o.seed, digestHex(b.digest), len(b.digest))
	if b.roundHost > 0 {
		p := 100 * b.primaryHost.Seconds() / b.roundHost.Seconds()
		fmt.Printf("info host_share primary=%.1f%% companions=%.1f%%\n", p, 100-p)
	}
	return &Result{
		Correct:   b.failed == 0 && b.attempted > 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   m,
	}
}
