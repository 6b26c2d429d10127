package regreuse

import (
	"encoding/csv"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/workloads"
)

// TestPaperClaims asserts the shape claims EXPERIMENTS.md makes about the
// committed results/*.csv. `make results-check` keeps those files equal to
// what the code regenerates; this test keeps them equal to what the prose
// says. Each claim names the sentence of EXPERIMENTS.md it tests, checks
// that the sentence is still there, and prints it when the claim fails.
func TestPaperClaims(t *testing.T) {
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	prose := strings.Join(strings.Fields(string(doc)), " ")
	for _, c := range paperClaims {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if t.Failed() {
					t.Logf("EXPERIMENTS.md: %q", c.says)
				}
			}()
			if !strings.Contains(prose, strings.Join(strings.Fields(c.says), " ")) {
				t.Errorf("EXPERIMENTS.md no longer says this; update the claim with the prose")
			}
			c.check(t)
		})
	}
}

// suiteNames lists the suite row keys of the per-suite CSVs.
func suiteNames() []string {
	var out []string
	for _, s := range workloads.Suites() {
		out = append(out, string(s))
	}
	return out
}

var paperClaims = []struct {
	name  string
	says  string // a sentence of EXPERIMENTS.md
	check func(t *testing.T)
}{
	{"fig1", "SPECint exceeds the paper's >30% claim", func(t *testing.T) {
		if v := readResult(t, "fig1_singleuse").at("specint", "total%"); v <= 30 {
			t.Errorf("SPECint single-use total %.3f%%, want > 30%%", v)
		}
	}},
	{"fig2", "one consumer is the largest bucket, above 60% in every suite", func(t *testing.T) {
		r := readResult(t, "fig2_consumers")
		for _, s := range suiteNames() {
			one := r.at(s, "1")
			if one <= 60 {
				t.Errorf("%s: one-consumer bucket %.3f%%, want > 60%%", s, one)
			}
			for _, col := range r.header[2:] {
				if v := r.at(s, col); v >= one {
					t.Errorf("%s: %s-consumer bucket %.3f%% not below the one-consumer %.3f%%", s, col, v, one)
				}
			}
		}
	}},
	{"fig3", "in every suite the per-depth buckets fall, one > two > three", func(t *testing.T) {
		r := readResult(t, "fig3_reuse_depth")
		for _, s := range suiteNames() {
			one, two, three := r.at(s, "one"), r.at(s, "two"), r.at(s, "three")
			if !(one > two && two > three) {
				t.Errorf("%s: one %.3f, two %.3f, three %.3f; want one > two > three", s, one, two, three)
			}
		}
	}},
	{"table2", "reproduces the overhead rows", func(t *testing.T) {
		const paper = 5.085e-3 // mm², the paper's Table II total overhead
		v := readResult(t, "table2_area").at("Total Overhead", "area mm^2")
		if math.Abs(v-paper) > 0.02*paper {
			t.Errorf("total overhead %g mm², want within 2%% of the paper's %g", v, paper)
		}
	}},
	{"fig9", "demand falls with shadow depth", func(t *testing.T) {
		r := readResult(t, "fig9_occupancy")
		for _, col := range r.header[1:] {
			l1, l2, l3 := r.at(">=1", col), r.at(">=2", col), r.at(">=3", col)
			if !(l1 >= l2 && l2 >= l3) {
				t.Errorf("coverage %s: >=1 %g, >=2 %g, >=3 %g; want non-increasing", col, l1, l2, l3)
			}
		}
	}},
	{"fig10", "FP-heavy suites under register pressure, with gains up to ~9% that decay to ~0 as the file grows past the in-flight demand", func(t *testing.T) {
		r := readResult(t, "fig10_speedup")
		for _, s := range []string{"specfp", "cognitive"} {
			best := 0.0
			for _, col := range r.header[1:] {
				if size, _ := strconv.Atoi(col); size <= 64 {
					best = max(best, r.at(s, col))
				}
			}
			if best <= 1.03 {
				t.Errorf("%s: best speedup at 64 registers or fewer %.3f, want > 1.03", s, best)
			}
		}
		for _, s := range suiteNames() {
			if v := r.at(s, "112"); math.Abs(v-1) > 0.005 {
				t.Errorf("%s: speedup at 112 registers %.3f, want within 0.5%% of 1", s, v)
			}
		}
	}},
	{"fig11", "the FP-side savings lie between 10.5% and 20%, above the paper's 10.5–13% band; reuse at 56 registers (IPC 1.469) beats the 64-register baseline (1.440)", func(t *testing.T) {
		r := readResult(t, "fig11_ipc")
		for _, s := range []string{"specfp", "cognitive"} {
			saving, ok := EqualIPCSaving(r.suiteCurve(s), 64)
			if !ok || saving < 10.5 || saving > 20 {
				t.Errorf("%s: equal-IPC saving at 64 registers %.2f%% (found %v), want 10.5–20%%", s, saving, ok)
			}
		}
		c := r.suiteCurve("specfp")
		reuse56, base64 := c.ReuseIPC[slices.Index(c.Sizes, 56)], c.BaseIPC[slices.Index(c.Sizes, 64)]
		if reuse56 <= base64 {
			t.Errorf("SPECfp reuse IPC at 56 registers %.3f, want above the 64-register baseline's %.3f", reuse56, base64)
		}
	}},
	{"fig12", "~90%+ overall accuracy, rare incorrect reuse", func(t *testing.T) {
		r := readResult(t, "fig12_predictor")
		for _, s := range suiteNames() {
			if right := r.at(s, "pred-reuse right") + r.at(s, "pred-normal right"); right <= 85 {
				t.Errorf("%s: right predictions %.3f%%, want > 85%%", s, right)
			}
			if wrong := r.at(s, "pred-reuse wrong"); wrong >= 1 {
				t.Errorf("%s: wrong reuse predictions %.3f%%, want < 1%%", s, wrong)
			}
		}
	}},
	{"depth_ablation", "The second level adds ~1%, the third ~0.2%", func(t *testing.T) {
		r := readResult(t, "ext_depth_ablation")
		d1, d2, d3 := r.at("1", "specfp speedup"), r.at("2", "specfp speedup"), r.at("3", "specfp speedup")
		if !(d1 < d2 && d2 <= d3) {
			t.Errorf("depth caps 1, 2, 3: %.3f, %.3f, %.3f; want 1 < 2 <= 3", d1, d2, d3)
		}
	}},
	{"ext_schemes", "freeing a register at the last consumer's *rename* beats freeing it at the last consumer's *execution*", func(t *testing.T) {
		r := readResult(t, "ext_schemes")
		for _, w := range []string{"poly_horner", "gmm_score"} {
			reuse, early := r.at(w, "reuse (paper)"), r.at(w, "early release [Ergin/Monreal]")
			if reuse >= early {
				t.Errorf("%s: reuse %g cycles, early release %g; want reuse fewer", w, reuse, early)
			}
		}
	}},
}

// resultCSV is one committed results/ CSV. Rows are keyed by their first
// column, cells by row key and column header.
type resultCSV struct {
	t      *testing.T
	name   string
	header []string
	rows   [][]string
}

func readResult(t *testing.T, name string) resultCSV {
	t.Helper()
	f, err := os.Open(filepath.Join("results", name+".csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatalf("%s.csv: %v", name, err)
	}
	if len(recs) < 2 {
		t.Fatalf("%s.csv: no data rows", name)
	}
	return resultCSV{t: t, name: name, header: recs[0], rows: recs[1:]}
}

// at returns the number in row row, column col.
func (r resultCSV) at(row, col string) float64 {
	r.t.Helper()
	c := slices.Index(r.header, col)
	for _, rec := range r.rows {
		if c > 0 && rec[0] == row {
			return r.number(rec[c])
		}
	}
	r.t.Fatalf("%s.csv has no cell at row %q, column %q", r.name, row, col)
	return 0
}

func (r resultCSV) number(s string) float64 {
	r.t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		r.t.Fatalf("%s.csv: %v", r.name, err)
	}
	return v
}

// suiteCurve rebuilds one suite's Figure 11 curve from fig11_ipc.csv,
// whose rows are (suite, size, baseline IPC, reuse IPC).
func (r resultCSV) suiteCurve(suite string) SuiteCurve {
	r.t.Helper()
	c := SuiteCurve{Suite: Suite(suite)}
	for _, rec := range r.rows {
		if rec[0] == suite {
			c.Sizes = append(c.Sizes, int(r.number(rec[1])))
			c.BaseIPC = append(c.BaseIPC, r.number(rec[2]))
			c.ReuseIPC = append(c.ReuseIPC, r.number(rec[3]))
		}
	}
	for _, n := range []int{56, 64} {
		if !slices.Contains(c.Sizes, n) {
			r.t.Fatalf("%s.csv: %s has no row at %d registers", r.name, suite, n)
		}
	}
	return c
}
