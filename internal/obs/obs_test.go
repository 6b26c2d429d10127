package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/rename"
)

// lifecycle feeds o the full event sequence of one instruction.
func lifecycle(o Observer, seq, fetch uint64, inst isa.Inst, kind RenameKind, dest rename.Tag) {
	o.Inst(InstEvent{Cycle: fetch, Seq: seq, PC: 0x1000 + 4*seq, Stage: StageFetch, Inst: inst})
	o.Inst(InstEvent{Cycle: fetch + 1, Seq: seq, PC: 0x1000 + 4*seq, Stage: StageRename, Inst: inst, Kind: kind, Dest: dest})
	o.Inst(InstEvent{Cycle: fetch + 3, Seq: seq, PC: 0x1000 + 4*seq, Stage: StageIssue, Inst: inst})
	o.Inst(InstEvent{Cycle: fetch + 4, Seq: seq, PC: 0x1000 + 4*seq, Stage: StageWriteback, Inst: inst})
	o.Inst(InstEvent{Cycle: fetch + 6, Seq: seq, PC: 0x1000 + 4*seq, Stage: StageCommit, Inst: inst, Kind: kind, Dest: dest})
}

func TestTracerRecordsAndChrome(t *testing.T) {
	tr := NewTracer(4) // rounds up to the 64-entry minimum
	add := isa.Inst{Op: isa.ADD, Rd: 1, Rs1: 2, Rs2: 3}
	for seq := uint64(0); seq < 10; seq++ {
		lifecycle(tr, seq, 10*seq, add, RenameAlloc, rename.Tag{Reg: rename.PhysReg(40 + seq)})
	}
	tr.Core(CoreEvent{Cycle: 5, Kind: CoreCheckpointCreate, Seq: 3})

	recs := tr.Records()
	if len(recs) != 10 {
		t.Fatalf("got %d records, want 10", len(recs))
	}
	for i, r := range recs {
		if r.Seq != uint64(i) {
			t.Fatalf("records not seq-sorted: recs[%d].Seq = %d", i, r.Seq)
		}
		if !r.Has(StageCommit) || r.Cycle(StageCommit) != 10*uint64(i)+6 {
			t.Errorf("seq %d: commit cycle %d, want %d", i, r.Cycle(StageCommit), 10*i+6)
		}
	}

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   uint64         `json:"ts"`
			Dur  uint64         `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome output is not valid JSON: %v", err)
	}
	var spans, instants int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			spans++
			if e.Dur == 0 {
				t.Errorf("span %q has zero duration", e.Name)
			}
		case "i":
			instants++
		case "M":
		default:
			t.Errorf("unexpected phase %q", e.Ph)
		}
	}
	if spans != 10 {
		t.Errorf("got %d X spans, want 10", spans)
	}
	if instants != 1 {
		t.Errorf("got %d instants (core events), want 1", instants)
	}
}

func TestTracerRingEviction(t *testing.T) {
	tr := NewTracer(64)
	add := isa.Inst{Op: isa.ADD}
	for seq := uint64(0); seq < 200; seq++ {
		lifecycle(tr, seq, seq, add, RenameNone, rename.Tag{})
	}
	recs := tr.Records()
	if len(recs) != 64 {
		t.Fatalf("got %d records, want ring capacity 64", len(recs))
	}
	if recs[0].Seq != 200-64 {
		t.Errorf("oldest surviving seq %d, want %d", recs[0].Seq, 200-64)
	}
}

// TestTracerCountsInFlightEvictions pins Evicted: a ring slot overwritten
// before its instruction committed or squashed counts once, a finished one
// not at all.
func TestTracerCountsInFlightEvictions(t *testing.T) {
	tr := NewTracer(64)
	for _, e := range []InstEvent{
		{Seq: 0, Stage: StageFetch}, {Seq: 1, Stage: StageSquash}, {Seq: 2, Stage: StageCommit},
		{Seq: 64, Stage: StageFetch}, {Seq: 65, Stage: StageFetch}, {Seq: 66, Stage: StageFetch},
		{Seq: 64, Stage: StageRename},
	} {
		tr.Inst(e)
	}
	if got := tr.Evicted(); got != 1 {
		t.Errorf("Evicted() = %d, want 1 (seq 0 overwritten in flight)", got)
	}
}

func TestPipeViewOutput(t *testing.T) {
	var buf bytes.Buffer
	pv := NewPipeView(&buf, 1, 2) // skip the first commit, print two
	add := isa.Inst{Op: isa.ADD, Rd: 1, Rs1: 2, Rs2: 3}
	for seq := uint64(0); seq < 4; seq++ {
		lifecycle(pv, seq, 10*seq, add, RenameReuseSpec, rename.Tag{Reg: 7, Ver: 2})
	}
	if err := pv.Err(); err != nil {
		t.Fatal(err)
	}
	if pv.Printed() != 2 {
		t.Fatalf("printed %d lines, want 2", pv.Printed())
	}
	out := buf.String()
	if !strings.Contains(out, "pipeline") {
		t.Errorf("missing header:\n%s", out)
	}
	// Stage timeline: fetch at +0, rename +1, issue +3, writeback +4,
	// commit +6 renders as FRrIWwC.
	if !strings.Contains(out, "FRrIWwC") {
		t.Errorf("missing expected timeline FRrIWwC:\n%s", out)
	}
	if !strings.Contains(out, "reuse*") || !strings.Contains(out, "P7.2") {
		t.Errorf("missing rename kind/dest:\n%s", out)
	}
	if strings.Contains(out, "      0 ") {
		t.Errorf("seq 0 printed despite skip=1:\n%s", out)
	}
}

func TestPipeViewElision(t *testing.T) {
	var buf bytes.Buffer
	pv := NewPipeView(&buf, 0, 1)
	pv.Width = 20
	ld := isa.Inst{Op: isa.ADD}
	pv.Inst(InstEvent{Cycle: 0, Seq: 0, Stage: StageFetch, Inst: ld})
	pv.Inst(InstEvent{Cycle: 1, Seq: 0, Stage: StageRename, Inst: ld, Kind: RenameAlloc})
	pv.Inst(InstEvent{Cycle: 300, Seq: 0, Stage: StageIssue, Inst: ld})
	pv.Inst(InstEvent{Cycle: 301, Seq: 0, Stage: StageWriteback, Inst: ld})
	pv.Inst(InstEvent{Cycle: 400, Seq: 0, Stage: StageCommit, Inst: ld, Kind: RenameAlloc})
	out := buf.String()
	if !strings.Contains(out, "~") {
		t.Errorf("long span not elided:\n%s", out)
	}
}

func TestHistBucketsAndQuantiles(t *testing.T) {
	var h Hist
	for v := uint64(0); v < 100; v++ {
		h.Observe(v)
	}
	if h.Count != 100 || h.Max != 99 {
		t.Fatalf("count %d max %d", h.Count, h.Max)
	}
	if m := h.Mean(); m != 49.5 {
		t.Errorf("mean %g, want 49.5", m)
	}
	// Bucket 0 holds only the zero sample.
	if h.Buckets[0] != 1 {
		t.Errorf("bucket 0 = %d, want 1", h.Buckets[0])
	}
	// Quantiles are upper bucket edges: p50 of 0..99 lands in [32,64).
	if q := h.Quantile(0.5); q != 63 {
		t.Errorf("p50 = %d, want 63", q)
	}
	// p99 is clamped to the observed max, not the bucket edge 127.
	if q := h.Quantile(0.99); q != 99 {
		t.Errorf("p99 = %d, want 99 (clamped to max)", q)
	}

	// Overflow bucket: huge values land in the last bucket and quantiles
	// clamp to Max.
	var big Hist
	big.Observe(1 << 40)
	if big.Buckets[histBuckets-1] != 1 {
		t.Errorf("overflow sample not in last bucket")
	}
	if q := big.Quantile(0.99); q != 1<<40 {
		t.Errorf("overflow quantile %d", q)
	}
}

func TestRegistrySnapshotStable(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("a")
	r.Counter("b").Add(2)
	if r.Counter("a") != c1 {
		t.Fatal("Counter not get-or-create")
	}
	c1.Inc()
	r.Hist("h").Observe(5)
	s := r.Snapshot()
	if len(s.Counters) != 2 || s.Counters[0].Name != "a" || s.Counters[0].Value != 1 {
		t.Errorf("counters snapshot: %+v", s.Counters)
	}
	if len(s.Histograms) != 1 || s.Histograms[0].Count != 1 {
		t.Errorf("hist snapshot: %+v", s.Histograms)
	}
}

// TestRegistryMetricsSorted pins the flat list sweepd's /metrics
// endpoints serialize: name-sorted, counters and histograms
// interleaved, with histogram snapshots attached.
func TestRegistryMetricsSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("z_last").Add(7)
	r.Hist("m_hist").Observe(3)
	r.Hist("m_hist").Observe(9)
	r.Counter("a_first").Inc()
	ms := r.Metrics()
	if len(ms) != 3 {
		t.Fatalf("got %d metrics, want 3: %+v", len(ms), ms)
	}
	for i := 1; i < len(ms); i++ {
		if ms[i-1].Name >= ms[i].Name {
			t.Fatalf("metrics not name-sorted: %+v", ms)
		}
	}
	byName := map[string]Metric{}
	for _, m := range ms {
		byName[m.Name] = m
	}
	if m := byName["z_last"]; m.Kind != "counter" || m.Value != 7 || m.Hist != nil {
		t.Errorf("counter metric: %+v", m)
	}
	if m := byName["m_hist"]; m.Kind != "histogram" || m.Value != 2 || m.Hist == nil || m.Hist.Max != 9 {
		t.Errorf("histogram metric: %+v", m)
	}
	// Snapshot is a partition of the same list.
	s := r.Snapshot()
	if len(s.Counters)+len(s.Histograms) != len(ms) {
		t.Errorf("snapshot partition mismatch: %d+%d vs %d", len(s.Counters), len(s.Histograms), len(ms))
	}
}

func TestMetricsCSV(t *testing.T) {
	var buf bytes.Buffer
	m := NewMetrics(10, &buf)
	add := isa.Inst{Op: isa.ADD, Rd: 1}
	lifecycle(m, 0, 0, add, RenameAlloc, rename.Tag{Reg: 9})
	lifecycle(m, 1, 2, add, RenameReuseSpec, rename.Tag{Reg: 9, Ver: 1})
	for cyc := uint64(1); cyc <= 20; cyc++ {
		m.Tick(Tick{Cycle: cyc, Committed: 2, IQ: 3, ROB: 5})
	}
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 { // header + rows at cycle 10 and 20
		t.Fatalf("got %d CSV lines, want 3:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "cycle,committed,ipc,window_ipc,commits") {
		t.Errorf("header: %q", lines[0])
	}
	if c, h := strings.Count(lines[0], ","), strings.Count(lines[1], ","); c != h {
		t.Errorf("header has %d columns, row has %d", c+1, h+1)
	}
	if m.R.Counter("commits").N != 2 {
		t.Errorf("commits = %d", m.R.Counter("commits").N)
	}
	if m.R.Counter("renames_reuse").N != 1 {
		t.Errorf("renames_reuse = %d", m.R.Counter("renames_reuse").N)
	}
	if h := m.R.Hist("rename_to_issue_cycles"); h.Count != 2 || h.Sum != 4 {
		t.Errorf("rename_to_issue: count %d sum %d, want 2/4", h.Count, h.Sum)
	}
}

type countObs struct{ inst, core, tick int }

func (c *countObs) Inst(InstEvent) { c.inst++ }
func (c *countObs) Core(CoreEvent) { c.core++ }
func (c *countObs) Tick(Tick)      { c.tick++ }

func TestCombine(t *testing.T) {
	if Combine() != nil || Combine(nil, nil) != nil {
		t.Error("Combine of nothing should be nil")
	}
	var a countObs
	if got := Combine(nil, &a); got != &a {
		t.Error("single observer should pass through")
	}
	var b countObs
	m := Combine(&a, nil, &b)
	m.Inst(InstEvent{})
	m.Core(CoreEvent{})
	m.Tick(Tick{})
	m.Tick(Tick{})
	if a.inst != 1 || b.inst != 1 || a.core != 1 || a.tick != 2 || b.tick != 2 {
		t.Errorf("fan-out counts: a=%+v b=%+v", a, b)
	}
}
