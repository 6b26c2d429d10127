package main

import (
	"reflect"
	"testing"
)

func record(name string, rate, allocs float64) benchRecord {
	return benchRecord{Name: name, Metrics: map[string]float64{rateUnit: rate}, AllocsPerOp: &allocs}
}

// TestRateOfTakesMedianOfRepeats pins the headline rates, and so the
// benchsmoke floors, to the median over every repeat of a benchmark, not
// to its first record; a benchmark whose name only starts the same way
// does not count.
func TestRateOfTakesMedianOfRepeats(t *testing.T) {
	recs := []benchRecord{
		record("BenchmarkAnalysisThroughput-2", 1, 0),
		record("BenchmarkAnalysisThroughputRadixsort-2", 100, 0),
		record("BenchmarkAnalysisThroughput-2", 40, 0),
		record("BenchmarkAnalysisThroughput-2", 30, 0),
	}
	if got, ok := rateOf(recs, analysisBench); !ok || got != 30 {
		t.Fatalf("rateOf over 3 repeats = %v, %v; want the median 30", got, ok)
	}
	recs = append(recs, record("BenchmarkAnalysisThroughput-2", 50, 0))
	if got, _ := rateOf(recs, analysisBench); got != 35 {
		t.Fatalf("rateOf over 4 repeats = %v; want the median 35", got)
	}
	if _, ok := rateOf(recs, sampledBench); ok {
		t.Fatal("rateOf found a benchmark that did not run")
	}
}

// TestCheckAllocsEveryRepeat requires every repeat, not only the first, to
// stay within its allocs/op ceiling.
func TestCheckAllocsEveryRepeat(t *testing.T) {
	recs := []benchRecord{
		record("BenchmarkFig1SingleUse-2", 0, 500),
		record("BenchmarkFig1SingleUse-2", 0, 1500),
	}
	if err := checkAllocs(recs[:1], "BenchmarkFig1SingleUse=1000"); err != nil {
		t.Fatalf("one repeat within its ceiling: %v", err)
	}
	if err := checkAllocs(recs, "BenchmarkFig1SingleUse=1000"); err == nil {
		t.Fatal("a later repeat above the ceiling passed")
	}
}

// TestCommitStamp pins the git_commit format: the commit alone for a clean
// tree, and the commit plus -dirty when `git status --porcelain` lists any
// change, so an artifact regenerated before its change is committed does
// not pass for a measurement of its parent.
func TestCommitStamp(t *testing.T) {
	const head = "ec62899783f4dc51f8b4ed6d57bb43c61f03fe96"
	for _, tc := range []struct{ porcelain, want string }{
		{"", head},
		{"\n", head},
		{" M BENCH_core.json\n", head + "-dirty"},
		{"?? new_test.go\n M README.md\n", head + "-dirty"},
	} {
		if got := commitStamp(head+"\n", tc.porcelain); got != tc.want {
			t.Errorf("commitStamp(head, %q) = %q, want %q", tc.porcelain, got, tc.want)
		}
	}
}

// TestCollapseTakesMedians pins the artifact's one record per benchmark:
// records keep the order in which their benchmarks first appear, and each
// holds the median iterations, ns/op, B/op, allocs/op and metrics over its
// repeats, a metric only over the repeats that report it.
func TestCollapseTakesMedians(t *testing.T) {
	f := func(v float64) *float64 { return &v }
	recs := []benchRecord{
		{Name: "BenchmarkCoreStep/reuse", Iterations: 1, NsPerOp: 900, BytesPerOp: f(0), AllocsPerOp: f(0),
			Metrics: map[string]float64{"ns/cycle": 900}},
		{Name: "BenchmarkFastForward", Iterations: 1, NsPerOp: 30, BytesPerOp: f(64), AllocsPerOp: f(3),
			Metrics: map[string]float64{rateUnit: 150}},
		{Name: "BenchmarkCoreStep/reuse", Iterations: 3, NsPerOp: 500, BytesPerOp: f(8), AllocsPerOp: f(1),
			Metrics: map[string]float64{"ns/cycle": 500, "IPC": 2}},
		{Name: "BenchmarkFastForward", Iterations: 1, NsPerOp: 10, BytesPerOp: f(32), AllocsPerOp: f(1),
			Metrics: map[string]float64{rateUnit: 250}},
		{Name: "BenchmarkCoreStep/reuse", Iterations: 2, NsPerOp: 600, BytesPerOp: f(0), AllocsPerOp: f(0),
			Metrics: map[string]float64{"ns/cycle": 600, "IPC": 3}},
		{Name: "BenchmarkTable2Area", Iterations: 1, NsPerOp: 7},
	}
	want := []benchRecord{
		{Name: "BenchmarkCoreStep/reuse", Iterations: 2, NsPerOp: 600, BytesPerOp: f(0), AllocsPerOp: f(0),
			Metrics: map[string]float64{"ns/cycle": 600, "IPC": 2.5}},
		{Name: "BenchmarkFastForward", Iterations: 1, NsPerOp: 20, BytesPerOp: f(48), AllocsPerOp: f(2),
			Metrics: map[string]float64{rateUnit: 200}},
		{Name: "BenchmarkTable2Area", Iterations: 1, NsPerOp: 7},
	}
	got := collapse(recs)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("collapse =\n%+v\nwant\n%+v", got, want)
	}
	if rate, _ := rateOf(got, ffBench); rate != 200 {
		t.Fatalf("rateOf over the collapsed records = %v, want the median 200", rate)
	}
}

// TestCheckFloorsGatesMedian pins each floor, -ff-floor among them, to the
// median over the rounds: a median below the floor fails even when one
// round clears it, a median above the floor passes though rounds miss it,
// and a floor on a benchmark that did not run fails.
func TestCheckFloorsGatesMedian(t *testing.T) {
	rounds := func(rates ...float64) []benchRecord {
		var recs []benchRecord
		for _, r := range rates {
			recs = append(recs, record("BenchmarkFastForward", r, 0), record("BenchmarkFastForwardFir", 1000, 0))
		}
		return recs
	}
	gate := []floorGate{{100, ffBench, "fast-forward"}}
	if err := checkFloors(rounds(300, 90, 80, 95, 85), gate); err == nil {
		t.Fatal("median 90 passed a floor of 100 because one round read 300")
	}
	if err := checkFloors(rounds(50, 110, 120, 60, 105), gate); err != nil {
		t.Fatalf("median 105 failed a floor of 100: %v", err)
	}
	if err := checkFloors(rounds(50, 110, 120, 60, 105), []floorGate{{0, sampledBench, "sampled mode"}}); err != nil {
		t.Fatalf("a zero floor gated: %v", err)
	}
	if err := checkFloors(rounds(200), []floorGate{{10, sampledBench, "sampled mode"}}); err == nil {
		t.Fatal("a floor on a benchmark that did not run passed")
	}
}

// rec is a benchmark record at ns/op with optional custom metrics, given as
// unit, value pairs.
func rec(name string, ns float64, metrics ...any) benchRecord {
	r := benchRecord{Name: name, NsPerOp: ns}
	for i := 0; i+1 < len(metrics); i += 2 {
		if r.Metrics == nil {
			r.Metrics = map[string]float64{}
		}
		r.Metrics[metrics[i].(string)] = metrics[i+1].(float64)
	}
	return r
}

// TestPairStats pins -pair's comparison: round k of one side pairs with
// round k of the other, in input order and per benchmark, over as many
// rounds as both sides ran; a rate (…/s) is compared higher-is-better,
// us/job and ns/op lower-is-better; a tie wins for neither side; and a
// benchmark one side did not run is left out.
func TestPairStats(t *testing.T) {
	base := []benchRecord{
		rec("BenchmarkFastForward-2", 9, "Minst/s", 100.0),
		rec("BenchmarkCacheHitSubmit-2", 4000, "us/job", 20.0),
		rec("BenchmarkFig1SingleUse-2", 50, "specfp-singleuse-%", 30.0),
		rec("BenchmarkOnlyBase-2", 1),
		rec("BenchmarkFastForward-2", 9, "Minst/s", 200.0),
		rec("BenchmarkCacheHitSubmit-2", 4000, "us/job", 20.0),
		rec("BenchmarkFig1SingleUse-2", 40),
		rec("BenchmarkFastForward-2", 9, "Minst/s", 100.0),
		rec("BenchmarkCacheHitSubmit-2", 4000, "us/job", 30.0),
	}
	next := []benchRecord{
		rec("BenchmarkCacheHitSubmit-2", 1, "us/job", 10.0),
		rec("BenchmarkFastForward-2", 9, "Minst/s", 150.0),
		rec("BenchmarkFig1SingleUse-2", 60),
		rec("BenchmarkOnlyNew-2", 1),
		rec("BenchmarkCacheHitSubmit-2", 1, "us/job", 20.0),
		rec("BenchmarkFastForward-2", 9, "Minst/s", 100.0),
		rec("BenchmarkFastForward-2", 9, "Minst/s", 120.0),
		rec("BenchmarkCacheHitSubmit-2", 1, "us/job", 15.0),
	}
	got := pairStats(base, next)
	want := []pairStat{
		{Name: "BenchmarkFastForward-2", Unit: "Minst/s", Higher: true, Pairs: 3,
			Base: [3]float64{100, 100, 150}, New: [3]float64{110, 120, 135}, Ratio: 1.2, Won: 2},
		{Name: "BenchmarkCacheHitSubmit-2", Unit: "us/job", Pairs: 3,
			Base: [3]float64{20, 20, 25}, New: [3]float64{12.5, 15, 17.5}, Ratio: 0.5, Won: 2},
		{Name: "BenchmarkFig1SingleUse-2", Unit: "ns/op", Pairs: 1,
			Base: [3]float64{50, 50, 50}, New: [3]float64{60, 60, 60}, Ratio: 1.2, Won: 0},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pairStats:\n got %+v\nwant %+v", got, want)
	}
}

// TestQuantileInterpolates pins the quartiles -pair reports to linear
// interpolation between the nearest ranks, with the median of an even
// count the mean of its middle two, and leaves its input in order.
func TestQuantileInterpolates(t *testing.T) {
	vs := []float64{4, 1, 3, 2}
	if got := quartileSet(vs); got != [3]float64{1.75, 2.5, 3.25} {
		t.Errorf("quartiles of 1..4 = %v, want [1.75 2.5 3.25]", got)
	}
	if !reflect.DeepEqual(vs, []float64{4, 1, 3, 2}) {
		t.Errorf("quantile reordered its input: %v", vs)
	}
	if got := quantile([]float64{7}, 0.75); got != 7 {
		t.Errorf("quantile of one value = %v, want 7", got)
	}
}
