package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{id: 0, parent: -1, start: ms(0), end: ms(100)},
		{id: 1, parent: 0, start: ms(10), end: ms(30)},
		{id: 2, parent: 0, start: ms(20), end: ms(50)},  // overlaps span 1
		{id: 3, parent: 0, start: ms(90), end: ms(120)}, // runs past its parent
		{id: 4, parent: 2, start: ms(25), end: ms(45)},  // grandchild of span 0
		{id: 5, parent: -1, start: ms(200), end: ms(210)},
	}
	// Span 0's children cover [10,50) and [90,100): 50ms of its 100.
	want := []time.Duration{ms(50), ms(20), ms(10), ms(30), ms(20), ms(10)}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d self time = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestTracerNestingAndSums(t *testing.T) {
	var off *tracer
	if id := off.begin("x", "", ""); id != -1 {
		t.Fatalf("nil tracer begin = %d, want -1", id)
	}
	off.end(-1, 1) // must not panic

	tr := newTracer("test")
	outer := tr.begin("pipeline.Core.Run", "reuse", "specfp")
	inner := tr.begin("rename.replay", "reuse", "specfp")
	tr.end(inner, 7)
	tr.end(outer, 100)
	other := tr.begin("pipeline.Core.Run", "baseline", "specint")
	tr.end(other, 50)

	if tr.spans[inner].parent != outer || tr.spans[other].parent != -1 {
		t.Fatalf("parents = %d, %d; want %d, -1", tr.spans[inner].parent, tr.spans[other].parent, outer)
	}
	if got := tr.sum("pipeline.Core.Run", "", ""); got.count != 2 || got.work != 150 {
		t.Errorf("sum over schemes = %+v, want 2 spans, 150 work", got)
	}
	reuse := tr.sum("pipeline.Core.Run", "reuse", "")
	if reuse.count != 1 || reuse.work != 100 || reuse.self > reuse.dur {
		t.Errorf("reuse sum = %+v", reuse)
	}
	if got := tr.sum("pipeline.Core.Run", "", "specint"); got.work != 50 {
		t.Errorf("specint sum work = %d, want 50", got.work)
	}
}

func TestWriteChrome(t *testing.T) {
	tr := newTracer("chrome")
	a := tr.begin("ckpt.FastForward", "", "specfp")
	b := tr.begin("emu.RunToHaltBatch", "", "specfp")
	tr.end(b, 10)
	tr.end(a, 10)
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("%d events, want 2", len(doc.TraceEvents))
	}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" || e.Dur < 0 || e.Args["run"] != "chrome" {
			t.Errorf("bad event %+v", e)
		}
	}
	if doc.TraceEvents[1].Args["parent"] != float64(0) {
		t.Errorf("inner span parent = %v, want 0", doc.TraceEvents[1].Args["parent"])
	}
}

func TestMedianAndTail(t *testing.T) {
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	var xs []float64
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	// Exactly ten samples (91..100) lie beyond the value 90.
	if got := tail(xs); got != 90 {
		t.Errorf("tail = %v, want 90", got)
	}
	if got := tail([]float64{5, 1, 3}); got != 5 {
		t.Errorf("tail of three samples = %v, want their maximum", got)
	}
}
