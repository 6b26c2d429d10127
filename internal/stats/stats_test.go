package stats

import (
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	tb := NewTable("name", "value")
	tb.Row("a", 1)
	tb.Row("long-name", 2.5)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "name") {
		t.Errorf("header line %q", lines[0])
	}
	if !strings.Contains(lines[3], "2.500") {
		t.Errorf("float formatting: %q", lines[3])
	}
	// Columns align: "value" header starts at same offset in all rows.
	off := strings.Index(lines[0], "value")
	if !strings.HasPrefix(lines[2][off-1:], " 1") && lines[2][off] != '1' {
		t.Errorf("misaligned column:\n%s", out)
	}
}

func TestRowFormatting(t *testing.T) {
	tb := NewTable("kind", "value")
	tb.Row("f32", float32(1.3))      // %v printed "1.3": no fixed precision
	tb.Row("f32b", float32(2.0)/3.0) // %v printed "0.6666667"
	tb.Row("f64", 2.0/3.0)
	tb.Row("int", -7)
	tb.Row("uint64", uint64(1<<40))
	tb.Row("bool", true)
	out := tb.String()
	for _, want := range []string{"1.300", "0.667", "-7", "1099511627776", "true"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, "1.2999999") {
		t.Errorf("float32 leaked shortest-repr formatting:\n%s", out)
	}
}

func TestCSVEscaping(t *testing.T) {
	tb := NewTable("a", "b")
	tb.Row(`x,y`, `q"z`)
	csv := tb.CSV()
	if !strings.Contains(csv, `"x,y"`) || !strings.Contains(csv, `"q""z"`) {
		t.Errorf("CSV escaping wrong: %q", csv)
	}
}

func TestMeanAndPct(t *testing.T) {
	if p := Pct(0.125); p != "12.5%" {
		t.Errorf("Pct = %q", p)
	}
}
