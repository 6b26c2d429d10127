package obs

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"
)

// Counter is a monotonically increasing named counter.
type Counter struct {
	Name string
	N    uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.N++ }

// Add adds d.
func (c *Counter) Add(d uint64) { c.N += d }

// Gauge is a named instantaneous value — a level that moves both ways
// (leases in flight, workers connected, queue depth), as opposed to a
// Counter's monotone total.
type Gauge struct {
	Name string
	V    int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.V = v }

// Add moves the value by d (negative to decrease).
func (g *Gauge) Add(d int64) { g.V += d }

// histBuckets is the number of power-of-two histogram buckets: bucket 0
// counts zero values, bucket i (i >= 1) counts values in [2^(i-1), 2^i),
// and the last bucket absorbs everything >= 2^(histBuckets-2).
const histBuckets = 18

// Hist is a fixed-size power-of-two histogram.
type Hist struct {
	Name    string
	Count   uint64
	Sum     uint64
	Max     uint64
	Buckets [histBuckets]uint64
}

// Observe files one sample. Allocation-free.
func (h *Hist) Observe(v uint64) {
	h.Count++
	h.Sum += v
	if v > h.Max {
		h.Max = v
	}
	i := bits.Len64(v)
	if i > histBuckets-1 {
		i = histBuckets - 1
	}
	h.Buckets[i]++
}

// Mean returns the arithmetic mean of the samples.
func (h *Hist) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Quantile returns an upper bound for the q-quantile (0 < q <= 1): the
// inclusive upper edge of the first bucket whose cumulative count reaches
// q*Count, clamped to Max for the overflow bucket.
func (h *Hist) Quantile(q float64) uint64 {
	if h.Count == 0 {
		return 0
	}
	target := uint64(q * float64(h.Count))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, b := range h.Buckets {
		cum += b
		if cum >= target {
			if i == 0 {
				return 0
			}
			if i == histBuckets-1 {
				// Overflow bucket: the power-of-two edge under-reports
				// arbitrarily large samples, so report the observed max.
				return h.Max
			}
			hi := uint64(1)<<uint(i) - 1
			if hi > h.Max {
				hi = h.Max
			}
			return hi
		}
	}
	return h.Max
}

// Registry holds named counters and histograms. Internally they live in
// registration order (the CSV streaming layout); every serialized view —
// Metrics and the Snapshot built from it — is sorted by name, so the wire
// layout is stable across runs and across registration-order refactors.
type Registry struct {
	counters []*Counter
	gauges   []*Gauge
	hists    []*Hist
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter returns the counter with the given name, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	for _, c := range r.counters {
		if c.Name == name {
			return c
		}
	}
	c := &Counter{Name: name}
	r.counters = append(r.counters, c)
	return c
}

// Gauge returns the gauge with the given name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	for _, g := range r.gauges {
		if g.Name == name {
			return g
		}
	}
	g := &Gauge{Name: name}
	r.gauges = append(r.gauges, g)
	return g
}

// Hist returns the histogram with the given name, creating it on first use.
func (r *Registry) Hist(name string) *Hist {
	for _, h := range r.hists {
		if h.Name == name {
			return h
		}
	}
	h := &Hist{Name: name}
	r.hists = append(r.hists, h)
	return h
}

// CounterSnap is one counter in a snapshot.
type CounterSnap struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// HistSnap is one histogram in a snapshot.
type HistSnap struct {
	Name    string   `json:"name"`
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Mean    float64  `json:"mean"`
	P50     uint64   `json:"p50"`
	P90     uint64   `json:"p90"`
	P99     uint64   `json:"p99"`
	Max     uint64   `json:"max"`
	Buckets []uint64 `json:"buckets"`
}

// GaugeSnap is one gauge in a snapshot.
type GaugeSnap struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// Snapshot is a point-in-time copy of a registry, shaped for JSON output.
// Gauges is omitted when empty so registries that predate gauges (the
// simulator run artifacts) serialize exactly as before.
//
//repro:schema obs-snapshot v1
type Snapshot struct {
	Counters   []CounterSnap `json:"counters"`
	Gauges     []GaugeSnap   `json:"gauges,omitempty"`
	Histograms []HistSnap    `json:"histograms"`
}

// Metric is one registry entry in the flat, name-sorted serialization that
// every /metrics surface shares (sweepd's): counters carry their value
// directly, histograms carry the sample count plus the full summary. The
// Snapshot shape embedded in run artifacts is partitioned from this same
// list, so there is exactly one serialization path out of a registry.
type Metric struct {
	Name  string    `json:"name"`
	Kind  string    `json:"kind"`  // "counter" | "gauge" | "histogram"
	Value uint64    `json:"value"` // counter value; histogram sample count
	Gauge int64     `json:"gauge,omitempty"`
	Hist  *HistSnap `json:"hist,omitempty"`
}

// Metrics returns the registry's current state as a stable, name-sorted
// flat list.
func (r *Registry) Metrics() []Metric {
	ms := make([]Metric, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for _, c := range r.counters {
		ms = append(ms, Metric{Name: c.Name, Kind: "counter", Value: c.N})
	}
	for _, g := range r.gauges {
		m := Metric{Name: g.Name, Kind: "gauge", Gauge: g.V}
		if g.V >= 0 {
			m.Value = uint64(g.V)
		}
		ms = append(ms, m)
	}
	for _, h := range r.hists {
		hs := HistSnap{
			Name: h.Name, Count: h.Count, Sum: h.Sum, Mean: h.Mean(),
			P50: h.Quantile(0.50), P90: h.Quantile(0.90), P99: h.Quantile(0.99),
			Max: h.Max, Buckets: append([]uint64(nil), h.Buckets[:]...),
		}
		ms = append(ms, Metric{Name: h.Name, Kind: "histogram", Value: h.Count, Hist: &hs})
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i].Name < ms[j].Name })
	return ms
}

// Snapshot copies the registry's current state, partitioned into counters
// and histograms (both name-sorted, via Metrics).
func (r *Registry) Snapshot() Snapshot {
	ms := r.Metrics()
	s := Snapshot{Counters: []CounterSnap{}, Histograms: []HistSnap{}}
	for _, m := range ms {
		switch m.Kind {
		case "counter":
			s.Counters = append(s.Counters, CounterSnap{Name: m.Name, Value: m.Value})
		case "gauge":
			s.Gauges = append(s.Gauges, GaugeSnap{Name: m.Name, Value: m.Gauge})
		case "histogram":
			s.Histograms = append(s.Histograms, *m.Hist)
		}
	}
	return s
}

// seqRingBits sizes the Metrics observer's seq-indexed stage-cycle rings;
// 4096 entries comfortably exceeds any in-flight window (ROB + fetch queue).
const seqRingBits = 12

type seqCycle struct {
	seq uint64
	cyc uint64
	ok  bool
}

// Metrics is the built-in metrics observer: it derives latency and occupancy
// distributions plus event counters from the observer stream, and — when
// Interval > 0 and W is set — streams one CSV snapshot row every Interval
// cycles. Field layout of the CSV is Header().
type Metrics struct {
	R        *Registry
	Interval uint64
	W        io.Writer

	renameC [1 << seqRingBits]seqCycle
	issueC  [1 << seqRingBits]seqCycle

	commits, micros, squashes *Counter
	allocs, reuses, repairs   *Counter
	stalls                    [numCoreKinds]*Counter
	renameToIssue, issueToWB  *Hist
	iqOcc, robOcc             *Hist
	reuseDepth                *Hist
	lastCommitted, lastCycle  uint64
	headerDone                bool
	err                       error
}

// NewMetrics creates a metrics observer on a fresh registry. interval is the
// CSV snapshot period in cycles (0 = no streaming); w receives the CSV rows
// (ignored when interval is 0).
func NewMetrics(interval uint64, w io.Writer) *Metrics {
	r := NewRegistry()
	m := &Metrics{R: r, Interval: interval, W: w}
	m.commits = r.Counter("commits")
	m.micros = r.Counter("micro_ops")
	m.squashes = r.Counter("squashes")
	m.allocs = r.Counter("renames_alloc")
	m.reuses = r.Counter("renames_reuse")
	m.repairs = r.Counter("renames_repair")
	for k := CoreKind(0); k < numCoreKinds; k++ {
		m.stalls[k] = r.Counter(strings.ReplaceAll(k.String(), "-", "_"))
	}
	m.renameToIssue = r.Hist("rename_to_issue_cycles")
	m.issueToWB = r.Hist("issue_to_writeback_cycles")
	m.iqOcc = r.Hist("iq_occupancy")
	m.robOcc = r.Hist("rob_occupancy")
	m.reuseDepth = r.Hist("reuse_chain_depth")
	return m
}

// Err returns the first CSV write error.
func (m *Metrics) Err() error { return m.err }

// Inst implements Observer.
func (m *Metrics) Inst(e InstEvent) {
	i := e.Seq & (1<<seqRingBits - 1)
	switch e.Stage {
	case StageRename:
		m.renameC[i] = seqCycle{seq: e.Seq, cyc: e.Cycle, ok: true}
		switch e.Kind {
		case RenameAlloc:
			m.allocs.Inc()
		case RenameReuseRedef, RenameReuseSpec:
			m.reuses.Inc()
			m.reuseDepth.Observe(uint64(e.Dest.Ver))
		case RenameRepair:
			m.repairs.Inc()
		}
	case StageIssue:
		if r := &m.renameC[i]; r.ok && r.seq == e.Seq {
			m.renameToIssue.Observe(e.Cycle - r.cyc)
		}
		m.issueC[i] = seqCycle{seq: e.Seq, cyc: e.Cycle, ok: true}
	case StageWriteback:
		if r := &m.issueC[i]; r.ok && r.seq == e.Seq {
			m.issueToWB.Observe(e.Cycle - r.cyc)
		}
	case StageCommit:
		if e.Micro {
			m.micros.Inc()
		} else {
			m.commits.Inc()
		}
	case StageSquash:
		m.squashes.Inc()
	}
}

// Core implements Observer.
func (m *Metrics) Core(e CoreEvent) {
	if e.Kind < numCoreKinds {
		m.stalls[e.Kind].Inc()
	}
}

// Tick implements Observer: sample occupancies and emit the periodic CSV
// row.
func (m *Metrics) Tick(t Tick) {
	m.iqOcc.Observe(uint64(t.IQ))
	m.robOcc.Observe(uint64(t.ROB))
	if m.Interval == 0 || m.W == nil || t.Cycle == 0 || t.Cycle%m.Interval != 0 {
		return
	}
	if m.err != nil {
		return
	}
	if !m.headerDone {
		m.headerDone = true
		if _, err := io.WriteString(m.W, m.Header()+"\n"); err != nil {
			m.err = err
			return
		}
	}
	winCycles := t.Cycle - m.lastCycle
	winInsts := m.commits.N - m.lastCommitted
	winIPC := 0.0
	if winCycles > 0 {
		winIPC = float64(winInsts) / float64(winCycles)
	}
	cumIPC := 0.0
	if t.Cycle > 0 {
		cumIPC = float64(m.commits.N) / float64(t.Cycle)
	}
	m.lastCycle, m.lastCommitted = t.Cycle, m.commits.N
	var b strings.Builder
	fmt.Fprintf(&b, "%d,%d,%.4f,%.4f", t.Cycle, m.commits.N, cumIPC, winIPC)
	for _, c := range m.R.counters {
		fmt.Fprintf(&b, ",%d", c.N)
	}
	for _, h := range m.R.hists {
		fmt.Fprintf(&b, ",%.2f,%d,%d", h.Mean(), h.Quantile(0.5), h.Quantile(0.99))
	}
	b.WriteByte('\n')
	if _, err := io.WriteString(m.W, b.String()); err != nil {
		m.err = err
	}
}

// Header returns the CSV column header matching the streamed rows: the fixed
// cycle/committed/IPC columns, every counter, then mean/p50/p99 per
// histogram.
func (m *Metrics) Header() string {
	var b strings.Builder
	b.WriteString("cycle,committed,ipc,window_ipc")
	for _, c := range m.R.counters {
		b.WriteByte(',')
		b.WriteString(c.Name)
	}
	for _, h := range m.R.hists {
		fmt.Fprintf(&b, ",%s_mean,%s_p50,%s_p99", h.Name, h.Name, h.Name)
	}
	return b.String()
}
