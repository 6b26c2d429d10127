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
