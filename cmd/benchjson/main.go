// Command benchjson converts `go test -bench` text output into a
// machine-readable JSON artifact (BENCH_core.json in `make bench`): one
// record per benchmark with ns/op, allocs/op, and any custom ReportMetric
// units, plus the headline fast-forward speedup — the functional
// fast-forward interpreter's Minst/s over the detailed core's.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem . | benchjson -echo -o BENCH_core.json
//
// With -floor N the exit status is nonzero unless the detailed-core
// throughput benchmark reached N Minst/s — the `make benchsmoke` CI gate
// against large simulator slowdowns. -sampled-floor, -analysis-floor and
// -ff-floor gate the sampled-mode, streaming-analysis and fast-forward
// headline rates the same way, and -allocs "Benchmark=Max,..." fails
// unless every named benchmark ran with -benchmem and stayed at or under
// its allocs/op ceiling (the zero-allocation guarantee of the streaming
// figure collectors).
//
// The input may repeat a benchmark (-count N, or N runs concatenated, as
// `make bench` and `make benchsmoke` feed it five interleaved rounds). The
// artifact then holds one record per benchmark with the median ns/op, B/op,
// allocs/op and metrics over its repeats, so each headline rate is a median
// too and one slow run on a busy host neither fails a floor nor sets the
// recorded rate; the allocs ceilings hold for every repeat.
//
// With -pair BASE NEW it reads two such files instead of stdin, written by
// alternating rounds of two builds (`make benchpair`), and prints per
// benchmark each side's median and quartiles, the median of the per-round
// ratios NEW/BASE and how many rounds NEW won:
//
//	benchjson -pair base.txt new.txt
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// benchRecord is one parsed benchmark result line.
//
//repro:schema benchjson-record v1
type benchRecord struct {
	Name        string   `json:"name"`
	Iterations  int64    `json:"iterations"`
	NsPerOp     float64  `json:"ns_per_op"`
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	// Metrics holds custom b.ReportMetric units (e.g. "Minst/s", "IPC").
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// artifact is the emitted document. The derived headline fields are present
// when the benchmarks they are computed from ran:
//
//   - DetailedRate: the raw full-fidelity detailed-core rate (Minst/s).
//   - SampledRate: the effective detailed-core rate in sampled mode —
//     whole-program instructions per wall second when the sweeps drive the
//     core through ckpt.SampleN (statistical IPC/reuse estimates, end-to-end
//     checksum), the production way to characterize a workload.
//   - SampledSpeedup: SampledRate / DetailedRate.
//   - FFSpeedup: functional fast-forward rate over DetailedRate.
//
//repro:schema benchjson-artifact v3
type artifact struct {
	SchemaVersion int `json:"schema_version"`
	// Provenance stamp (schema v2): which commit and toolchain produced the
	// artifact, and when. GitCommit is best-effort — absent outside a git
	// checkout — and names the commit the artifact was measured at. It
	// carries a -dirty suffix when the tree had uncommitted changes: `make
	// bench` usually runs before its change is committed, so the code
	// measured is HEAD plus those changes.
	GitCommit    string        `json:"git_commit,omitempty"`
	GoVersion    string        `json:"go_version,omitempty"`
	GeneratedUTC string        `json:"generated_utc,omitempty"`
	Benchmarks   []benchRecord `json:"benchmarks"`
	DetailedRate *float64      `json:"detailed_minst_per_s,omitempty"`
	SampledRate  *float64      `json:"sampled_minst_per_s,omitempty"`
	// AnalysisRate is the streaming trace-analysis rate (Minst/s): committed
	// instructions per wall second through the batched commit sink and the
	// bounded-memory figure collector.
	AnalysisRate   *float64 `json:"analysis_minst_per_s,omitempty"`
	SampledSpeedup *float64 `json:"sampled_speedup,omitempty"`
	FFSpeedup      *float64 `json:"ff_speedup,omitempty"`
}

// Schema history:
//
//	1: benchmarks + derived headline rates
//	2: adds the git_commit/go_version/generated_utc provenance stamp
//	3: adds the analysis_minst_per_s streaming-analysis headline
const schemaVersion = 3

// The benchmarks the derived headline rates are read from.
const (
	ffBench       = "BenchmarkFastForward"
	detailedBench = "BenchmarkSimulatorThroughput/reuse"
	sampledBench  = "BenchmarkSampledThroughput"
	analysisBench = "BenchmarkAnalysisThroughput"
	rateUnit      = "Minst/s"
)

func main() {
	out := flag.String("o", "", "write JSON here instead of stdout")
	echo := flag.Bool("echo", false, "copy the input through to stdout while parsing")
	floor := flag.Float64("floor", 0, "fail unless the detailed-core benchmark reaches this many Minst/s")
	sampledFloor := flag.Float64("sampled-floor", 0, "fail unless the sampled-mode benchmark reaches this many Minst/s")
	analysisFloor := flag.Float64("analysis-floor", 0, "fail unless the streaming-analysis benchmark reaches this many Minst/s")
	ffFloor := flag.Float64("ff-floor", 0, "fail unless the fast-forward benchmark reaches this many Minst/s")
	allocsSpec := flag.String("allocs", "", "comma-separated Benchmark=Max allocs/op ceilings; fail if a named benchmark is missing, lacks -benchmem data, or exceeds its ceiling")
	pair := flag.Bool("pair", false, "compare two files of paired rounds, BASE and NEW, named as arguments")
	flag.Parse()

	if *pair {
		if err := runPair(os.Stdout, flag.Args()); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}

	doc := artifact{
		SchemaVersion: schemaVersion,
		GoVersion:     runtime.Version(),
		GeneratedUTC:  time.Now().UTC().Format(time.RFC3339),
	}
	head, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err == nil {
		status, err := exec.Command("git", "status", "--porcelain").Output()
		if err == nil {
			doc.GitCommit = commitStamp(string(head), string(status))
		}
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if *echo {
			fmt.Println(line)
		}
		if r, ok := parseLine(line); ok {
			doc.Benchmarks = append(doc.Benchmarks, r)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	ff, haveFF := rateOf(doc.Benchmarks, ffBench)
	det, haveDet := rateOf(doc.Benchmarks, detailedBench)
	sam, haveSam := rateOf(doc.Benchmarks, sampledBench)
	ana, haveAna := rateOf(doc.Benchmarks, analysisBench)
	if haveDet {
		doc.DetailedRate = &det
	}
	if haveSam {
		doc.SampledRate = &sam
	}
	if haveAna {
		doc.AnalysisRate = &ana
	}
	if haveFF && haveDet && det > 0 {
		ratio := ff / det
		doc.FFSpeedup = &ratio
	}
	if haveSam && haveDet && det > 0 {
		ratio := sam / det
		doc.SampledSpeedup = &ratio
	}
	if err := checkFloors(doc.Benchmarks, []floorGate{
		{*floor, detailedBench, "detailed core"},
		{*sampledFloor, sampledBench, "sampled mode"},
		{*analysisFloor, analysisBench, "streaming analysis"},
		{*ffFloor, ffBench, "fast-forward"},
	}); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if err := checkAllocs(doc.Benchmarks, *allocsSpec); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	doc.Benchmarks = collapse(doc.Benchmarks)

	data, err := json.MarshalIndent(doc, "", "\t")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}
	if _, err := os.Stdout.Write(data); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// commitStamp formats the git_commit stamp from `git rev-parse HEAD` and
// `git status --porcelain` output: the commit, plus -dirty when the status
// lists any change.
func commitStamp(head, porcelain string) string {
	head = strings.TrimSpace(head)
	if strings.TrimSpace(porcelain) != "" {
		return head + "-dirty"
	}
	return head
}

// parseLine decodes one `go test -bench` result line:
//
//	BenchmarkName-8   100   123.4 ns/op   5 B/op   0 allocs/op   2.5 Minst/s
//
// Anything that is not a benchmark result (headers, PASS, ok) returns false.
func parseLine(line string) (benchRecord, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return benchRecord{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return benchRecord{}, false
	}
	r := benchRecord{Name: f[0], Iterations: iters}
	sawNs := false
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return benchRecord{}, false
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			r.NsPerOp = v
			sawNs = true
		case "B/op":
			b := v
			r.BytesPerOp = &b
		case "allocs/op":
			a := v
			r.AllocsPerOp = &a
		default:
			if r.Metrics == nil {
				r.Metrics = map[string]float64{}
			}
			r.Metrics[unit] = v
		}
	}
	return r, sawNs
}

// rateOf returns the median Minst/s over every record of the benchmark
// named prefix.
func rateOf(recs []benchRecord, prefix string) (float64, bool) {
	var rates []float64
	for _, r := range repeats(recs, prefix) {
		if v, ok := r.Metrics[rateUnit]; ok {
			rates = append(rates, v)
		}
	}
	if len(rates) == 0 {
		return 0, false
	}
	return median(rates), true
}

// median returns the middle of vs (the mean of the two middle values for
// an even count). vs must not be empty.
func median(vs []float64) float64 { return quantile(vs, 0.5) }

// collapse folds the repeats of each benchmark into one record, in order of
// first appearance: the median iterations, ns/op, B/op and allocs/op, and
// per metric unit the median over the repeats that report it. B/op and
// allocs/op stay absent unless a repeat carries them.
func collapse(recs []benchRecord) []benchRecord {
	var order []string
	byName := map[string][]benchRecord{}
	for _, r := range recs {
		if _, ok := byName[r.Name]; !ok {
			order = append(order, r.Name)
		}
		byName[r.Name] = append(byName[r.Name], r)
	}
	out := make([]benchRecord, 0, len(order))
	for _, name := range order {
		rs := byName[name]
		var iters, ns, bytes, allocs []float64
		metrics := map[string][]float64{}
		for _, r := range rs {
			iters = append(iters, float64(r.Iterations))
			ns = append(ns, r.NsPerOp)
			if r.BytesPerOp != nil {
				bytes = append(bytes, *r.BytesPerOp)
			}
			if r.AllocsPerOp != nil {
				allocs = append(allocs, *r.AllocsPerOp)
			}
			for unit, v := range r.Metrics {
				metrics[unit] = append(metrics[unit], v)
			}
		}
		m := benchRecord{Name: name, Iterations: int64(median(iters)), NsPerOp: median(ns)}
		if len(bytes) > 0 {
			v := median(bytes)
			m.BytesPerOp = &v
		}
		if len(allocs) > 0 {
			v := median(allocs)
			m.AllocsPerOp = &v
		}
		if len(metrics) > 0 {
			m.Metrics = make(map[string]float64, len(metrics))
			for unit, vs := range metrics {
				m.Metrics[unit] = median(vs)
			}
		}
		out = append(out, m)
	}
	return out
}

// repeats returns every record of the benchmark named prefix, in input
// order; names carry a -GOMAXPROCS suffix.
func repeats(recs []benchRecord, prefix string) []benchRecord {
	var out []benchRecord
	for _, r := range recs {
		if r.Name == prefix || strings.HasPrefix(r.Name, prefix+"-") {
			out = append(out, r)
		}
	}
	return out
}

// floorGate is one -*-floor flag: the benchmark whose median Minst/s must
// reach floor. A floor of 0 turns the gate off.
type floorGate struct {
	floor float64
	bench string
	label string
}

// checkFloors fails unless, for every gate that is on, the median Minst/s
// over the benchmark's repeats reaches its floor; the median keeps one
// slow round on a busy host from failing the gate, and one fast round
// from passing it.
func checkFloors(recs []benchRecord, gates []floorGate) error {
	for _, g := range gates {
		if g.floor <= 0 {
			continue
		}
		rate, ok := rateOf(recs, g.bench)
		if !ok {
			return fmt.Errorf("floor %v set but %s did not run", g.floor, g.bench)
		}
		if rate < g.floor {
			return fmt.Errorf("%s at %.3f Minst/s (median of %d), below floor %.3f",
				g.label, rate, len(repeats(recs, g.bench)), g.floor)
		}
	}
	return nil
}

// checkAllocs enforces a "Benchmark=Max,Benchmark=Max" allocs/op spec: every
// named benchmark must be present, and every repeat of it must carry
// allocs/op data (the run needs -benchmem) and stay at or under its
// ceiling. A missing benchmark is an error — a ceiling that silently stops
// being checked is how allocation regressions sneak back in.
func checkAllocs(recs []benchRecord, spec string) error {
	if spec == "" {
		return nil
	}
	for _, entry := range strings.Split(spec, ",") {
		name, maxStr, ok := strings.Cut(strings.TrimSpace(entry), "=")
		if !ok {
			return fmt.Errorf("-allocs entry %q: want Benchmark=Max", entry)
		}
		max, err := strconv.ParseFloat(maxStr, 64)
		if err != nil {
			return fmt.Errorf("-allocs entry %q: bad ceiling: %v", entry, err)
		}
		rs := repeats(recs, name)
		if len(rs) == 0 {
			return fmt.Errorf("-allocs: benchmark %s did not run", name)
		}
		for _, r := range rs {
			if r.AllocsPerOp == nil {
				return fmt.Errorf("-allocs: benchmark %s has no allocs/op (run with -benchmem)", name)
			}
			if *r.AllocsPerOp > max {
				return fmt.Errorf("%s at %.0f allocs/op, above ceiling %.0f", name, *r.AllocsPerOp, max)
			}
		}
	}
	return nil
}
