package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// pairStat compares one benchmark across paired rounds of two builds: the
// k-th record of each side in its file make round k's pair.
type pairStat struct {
	Name   string
	Unit   string
	Higher bool // a higher value is better
	Pairs  int
	// Base and New are the quartiles of each side's values: q1, median, q3.
	Base, New [3]float64
	Ratio     float64 // median over the pairs of new/base
	Won       int     // pairs in which new was better; a tie counts for neither
}

// runPair reads the BASE and NEW files named by args and writes one line
// per benchmark that ran in both.
func runPair(w io.Writer, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-pair takes two files, BASE and NEW; got %d arguments", len(args))
	}
	base, err := readRecords(args[0])
	if err != nil {
		return err
	}
	next, err := readRecords(args[1])
	if err != nil {
		return err
	}
	stats := pairStats(base, next)
	if len(stats) == 0 {
		return fmt.Errorf("no benchmark ran in both %s and %s", args[0], args[1])
	}
	fmt.Fprintf(w, "%-44s %-8s %-6s %5s  %-28s %-28s %8s %6s\n",
		"benchmark", "unit", "better", "pairs", "base median [q1, q3]", "new median [q1, q3]", "new/base", "won")
	for _, p := range stats {
		better := "lower"
		if p.Higher {
			better = "higher"
		}
		fmt.Fprintf(w, "%-44s %-8s %-6s %5d  %-28s %-28s %8.3f %3d/%d\n",
			p.Name, p.Unit, better, p.Pairs, quartiles(p.Base), quartiles(p.New), p.Ratio, p.Won, p.Pairs)
	}
	return nil
}

func quartiles(q [3]float64) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", q[1], q[0], q[2])
}

// readRecords parses every benchmark result line of the file at path.
func readRecords(path string) ([]benchRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []benchRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if r, ok := parseLine(sc.Text()); ok {
			recs = append(recs, r)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

// pairStats pairs each benchmark's records across the two sides in input
// order, for every benchmark both sides ran, in the order base first ran
// them.
func pairStats(base, next []benchRecord) []pairStat {
	var order []string
	byName := map[string][2][]benchRecord{}
	for side, recs := range [][]benchRecord{base, next} {
		for _, r := range recs {
			sides, seen := byName[r.Name]
			if !seen && side == 0 {
				order = append(order, r.Name)
			}
			sides[side] = append(sides[side], r)
			byName[r.Name] = sides
		}
	}
	var out []pairStat
	for _, name := range order {
		sides := byName[name]
		n := min(len(sides[0]), len(sides[1]))
		if n == 0 {
			continue
		}
		unit, higher := pairUnit(append(sides[0][:n:n], sides[1][:n]...))
		p := pairStat{Name: name, Unit: unit, Higher: higher, Pairs: n}
		var b, v, ratios []float64
		for k := 0; k < n; k++ {
			x, y := valueIn(sides[0][k], unit), valueIn(sides[1][k], unit)
			b, v, ratios = append(b, x), append(v, y), append(ratios, y/x)
			if (higher && y > x) || (!higher && y < x) {
				p.Won++
			}
		}
		p.Base, p.New, p.Ratio = quartileSet(b), quartileSet(v), median(ratios)
		out = append(out, p)
	}
	return out
}

// pairUnit picks the unit a benchmark is compared in: a rate its records
// report (a unit ending in "/s", higher is better), else its us/job (lower
// is better), else ns/op (lower is better). Among several rates the first
// in sorted order is taken, so the choice does not depend on map order.
func pairUnit(recs []benchRecord) (unit string, higher bool) {
	var rates []string
	jobs := false
	for _, r := range recs {
		for u := range r.Metrics {
			switch {
			case strings.HasSuffix(u, "/s"):
				rates = append(rates, u)
			case u == "us/job":
				jobs = true
			}
		}
	}
	switch {
	case len(rates) > 0:
		sort.Strings(rates)
		return rates[0], true
	case jobs:
		return "us/job", false
	}
	return "ns/op", false
}

// valueIn is r's value in unit; a record that lacks the unit reads 0.
func valueIn(r benchRecord, unit string) float64 {
	if unit == "ns/op" {
		return r.NsPerOp
	}
	return r.Metrics[unit]
}

// quartileSet returns q1, the median and q3 of vs.
func quartileSet(vs []float64) [3]float64 {
	return [3]float64{quantile(vs, 0.25), median(vs), quantile(vs, 0.75)}
}

// quantile returns the q-quantile of vs, interpolating linearly between
// the two nearest ranks. vs is not reordered and must not be empty.
func quantile(vs []float64, q float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
