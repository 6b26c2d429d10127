package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/isa"
	"repro/internal/rename"
)

// TraceRec is one instruction's recorded lifecycle: the cycle of every stage
// it reached plus its rename-stage outcome. Records live in the tracer's
// fixed ring and are overwritten once the instruction falls more than the
// ring capacity behind the newest sequence number.
type TraceRec struct {
	Seq    uint64
	PC     uint64
	Inst   isa.Inst
	Kind   RenameKind
	Reason rename.Reason
	Dest   rename.Tag
	Micro  bool
	Branch bool
	Taken  bool

	cycles [numStages]uint64
	seen   uint8 // bit i set = stage i recorded
}

// Has reports whether the record reached the stage.
func (r *TraceRec) Has(s Stage) bool { return r.seen&(1<<s) != 0 }

// Cycle returns the cycle the record entered the stage (0 if !Has).
func (r *TraceRec) Cycle(s Stage) uint64 { return r.cycles[s] }

// record folds one lifecycle event into the ring slot: an event for a new
// sequence number resets the slot, rename fills the decision fields, commit
// the branch outcome, and every stage stamps its cycle. It reports whether
// the reset overwrote an instruction that had neither committed nor
// squashed.
func (r *TraceRec) record(e InstEvent) (evicted bool) {
	if r.seen == 0 || r.Seq != e.Seq {
		evicted = r.seen != 0 && !r.Has(StageCommit) && !r.Has(StageSquash)
		*r = TraceRec{Seq: e.Seq, PC: e.PC, Inst: e.Inst}
	}
	switch e.Stage {
	case StageRename:
		r.Kind = e.Kind
		r.Reason = e.Reason
		r.Dest = e.Dest
		r.Micro = e.Micro
	case StageCommit:
		r.Branch = e.Branch
		r.Taken = e.Taken
	}
	r.cycles[e.Stage] = e.Cycle
	r.seen |= 1 << e.Stage
	return evicted
}

// Tracer is the ring-buffer lifecycle tracer: it retains the last `capacity`
// instructions (by sequence number) and the last `capacity` core events,
// allocation-free after construction, and exports them as Chrome
// trace_event JSON loadable in chrome://tracing or Perfetto.
type Tracer struct {
	ring    []TraceRec
	mask    uint64
	maxSeq  uint64 // highest seq observed + 1
	evicted uint64 // records overwritten before completing

	core     []CoreEvent
	coreHead int
}

// NewTracer creates a tracer retaining the most recent capacity instructions
// (rounded up to a power of two, minimum 64).
func NewTracer(capacity int) *Tracer {
	n := 64
	for n < capacity {
		n <<= 1
	}
	return &Tracer{
		ring: make([]TraceRec, n),
		mask: uint64(n - 1),
		core: make([]CoreEvent, 0, n),
	}
}

// Inst implements Observer.
func (t *Tracer) Inst(e InstEvent) {
	if t.ring[e.Seq&t.mask].record(e) {
		t.evicted++
	}
	if e.Seq >= t.maxSeq {
		t.maxSeq = e.Seq + 1
	}
}

// Core implements Observer: core events go into their own ring (oldest
// overwritten first).
func (t *Tracer) Core(e CoreEvent) {
	if len(t.core) < cap(t.core) {
		t.core = append(t.core, e)
		return
	}
	t.core[t.coreHead] = e
	t.coreHead++
	if t.coreHead == len(t.core) {
		t.coreHead = 0
	}
}

// Tick implements Observer.
func (t *Tracer) Tick(Tick) {}

// Evicted reports how many in-flight records were overwritten before they
// committed or squashed (ring capacity too small for the window traced).
func (t *Tracer) Evicted() uint64 { return t.evicted }

// Records returns the retained instruction records sorted by sequence
// number. The returned slice is freshly allocated; export-path only.
func (t *Tracer) Records() []TraceRec {
	out := make([]TraceRec, 0, len(t.ring))
	for i := range t.ring {
		if t.ring[i].seen != 0 {
			out = append(out, t.ring[i])
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out
}

// CoreEvents returns the retained core events, oldest first.
func (t *Tracer) CoreEvents() []CoreEvent {
	out := make([]CoreEvent, 0, len(t.core))
	out = append(out, t.core[t.coreHead:]...)
	out = append(out, t.core[:t.coreHead]...)
	return out
}

// chromeEvent is one entry of the Chrome trace_event format's traceEvents
// array (the subset we emit: complete "X" spans, instant "i" markers and
// metadata "M" records).
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	Ts    uint64         `json:"ts"`
	Dur   uint64         `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   uint64         `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level JSON object.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// chromeLanes is how many parallel instruction lanes (Chrome "threads") the
// export spreads spans across; overlapping in-flight instructions land on
// different lanes so the viewer does not stack them into false nesting.
const chromeLanes = 24

// WriteChrome exports the retained window as Chrome trace_event JSON: one
// complete ("X") span per instruction from its first to last recorded stage,
// with per-stage cycles and the rename decision in args; squashes and core
// events become instant ("i") markers. Cycle numbers are reported as
// microsecond timestamps (1 cycle = 1 µs) since the format has no native
// cycle unit.
func (t *Tracer) WriteChrome(w io.Writer) error {
	recs := t.Records()
	events := make([]chromeEvent, 0, len(recs)+len(t.core)+chromeLanes+1)
	for lane := 0; lane < chromeLanes; lane++ {
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 0, Tid: uint64(lane + 1),
			Args: map[string]any{"name": fmt.Sprintf("lane %02d", lane)},
		})
	}
	events = append(events, chromeEvent{
		Name: "thread_name", Ph: "M", Pid: 0, Tid: 0,
		Args: map[string]any{"name": "core events"},
	})
	for i := range recs {
		r := &recs[i]
		first, last, ok := r.span()
		if !ok {
			continue
		}
		args := map[string]any{
			"seq": r.Seq,
			"pc":  fmt.Sprintf("%#x", r.PC),
		}
		for s := StageFetch; s < numStages; s++ {
			if r.Has(s) {
				args[s.String()] = r.cycles[s]
			}
		}
		if r.Kind != RenameNone {
			args["rename"] = r.Kind.String()
			args["reason"] = r.Reason.String()
			args["dest"] = fmt.Sprintf("P%d.%d", r.Dest.Reg, r.Dest.Ver)
		}
		cat := "inst"
		switch {
		case r.Micro:
			cat = "micro"
		case r.Has(StageSquash):
			cat = "squashed"
		}
		events = append(events, chromeEvent{
			Name: r.Inst.String(), Cat: cat, Ph: "X",
			Ts: first, Dur: last - first + 1,
			Pid: 0, Tid: r.Seq%chromeLanes + 1,
			Args: args,
		})
		if r.Has(StageSquash) {
			events = append(events, chromeEvent{
				Name: "squash", Cat: "squash", Ph: "i",
				Ts: r.cycles[StageSquash], Pid: 0, Tid: r.Seq%chromeLanes + 1,
				Scope: "t", Args: map[string]any{"seq": r.Seq},
			})
		}
	}
	for _, e := range t.CoreEvents() {
		events = append(events, chromeEvent{
			Name: e.Kind.String(), Cat: "core", Ph: "i",
			Ts: e.Cycle, Pid: 0, Tid: 0, Scope: "t",
			Args: map[string]any{"seq": e.Seq, "arg": e.Arg},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ns"})
}

// span returns the first and last recorded cycle of the record.
func (r *TraceRec) span() (first, last uint64, ok bool) {
	first = ^uint64(0)
	for s := StageFetch; s < numStages; s++ {
		if !r.Has(s) {
			continue
		}
		c := r.cycles[s]
		if c < first {
			first = c
		}
		if c > last {
			last = c
		}
		ok = true
	}
	return first, last, ok
}
