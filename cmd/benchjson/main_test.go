package main

import "testing"

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
