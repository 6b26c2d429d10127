package regreuse

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// readmeTolerance is how far a README "~N" throughput figure may sit from
// the BENCH_core.json value it summarizes.
const readmeTolerance = 0.15

// TestReadmeThroughputMatchesArtifact keeps README's "How fast is it now"
// numbers tied to the committed benchmark artifact: every table row's
// "~N" Minst/s must be within readmeTolerance of the Minst/s that
// BENCH_core.json records for the benchmark the row cites, and the quoted
// sampled_speedup must be within the same band of the recorded ratio.
// Regenerating BENCH_core.json (make bench) without updating the README,
// or the reverse, fails here.
func TestReadmeThroughputMatchesArtifact(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("BENCH_core.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Benchmarks []struct {
			Name    string             `json:"name"`
			Metrics map[string]float64 `json:"metrics"`
		} `json:"benchmarks"`
		SampledSpeedup float64 `json:"sampled_speedup"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	rates := make(map[string]float64)
	for _, b := range doc.Benchmarks {
		if v, ok := b.Metrics["Minst/s"]; ok {
			rates[b.Name] = v
		}
	}

	check := func(what string, claimed, recorded float64) {
		t.Helper()
		if math.Abs(claimed-recorded) > readmeTolerance*recorded {
			t.Errorf("README says ~%g for %s; BENCH_core.json records %.4g (more than %.0f%% apart)",
				claimed, what, recorded, 100*readmeTolerance)
		}
	}

	row := regexp.MustCompile("^\\| [^|]+ \\| ~([0-9.]+) \\| `(Benchmark[A-Za-z0-9_/]+)`")
	rows := 0
	for _, line := range strings.Split(string(readme), "\n") {
		m := row.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		rows++
		claimed, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			t.Fatalf("row %q: %v", line, err)
		}
		recorded, ok := rates[m[2]]
		if !ok {
			t.Errorf("README row cites %s, which BENCH_core.json records no Minst/s for", m[2])
			continue
		}
		check(m[2], claimed, recorded)
	}
	if rows != 5 {
		t.Errorf("found %d throughput rows in README, want 5 (detailed, sampled, fast-forward, analysis on dgemm and radixsort)", rows)
	}

	speedup := regexp.MustCompile("`sampled_speedup` in\\s+`BENCH_core.json`, ~([0-9.]+)x").FindSubmatch(readme)
	if speedup == nil {
		t.Fatal("README no longer quotes sampled_speedup")
	}
	claimed, err := strconv.ParseFloat(string(speedup[1]), 64)
	if err != nil {
		t.Fatal(err)
	}
	check("sampled_speedup", claimed, doc.SampledSpeedup)
}
