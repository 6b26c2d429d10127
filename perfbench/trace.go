package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one traced call into a layer: its name, its interval, the span
// that caused it, and the run it belongs to. Tag is the scheme or sweep
// phase, group the kernel's suite or the grid; work counts what the call
// did (cycles, instructions, rows or bytes).
type span struct {
	id, parent int
	name       string
	tag, group string
	start, end time.Duration // since the tracer's origin
	work       uint64
}

// tracer keeps spans in memory for one run on one goroutine. A nil tracer
// records nothing, which is how untraced runs pay for tracing: a nil check.
type tracer struct {
	run    string
	origin time.Time
	spans  []span
	open   []int           // open span ids, innermost last
	self   []time.Duration // selfTimes(spans), computed when first summed
}

func newTracer(run string) *tracer {
	return &tracer{run: run, origin: time.Now()}
}

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name, tag, group string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{id: id, parent: parent, name: name, tag: tag, group: group, start: time.Since(t.origin)})
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span, which must be id, recording work.
func (t *tracer) end(id int, work uint64) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.end = time.Since(t.origin)
	s.work = work
	t.open = t.open[:len(t.open)-1]
}

// selfTimes returns each span's duration minus the part of it that its
// children cover (overlapping children count once, clipped to the parent).
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ a, b time.Duration }
		ivs := make([]iv, 0, len(kids[i]))
		for _, k := range kids[i] {
			a, b := max(spans[k].start, s.start), min(spans[k].end, s.end)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, reach time.Duration
		reach = s.start
		for _, v := range ivs {
			if v.a > reach {
				reach = v.a
			}
			if v.b > reach {
				covered += v.b - reach
				reach = v.b
			}
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// total sums the spans that share a name and, when not empty, a tag and a
// group.
type total struct {
	count     int
	dur, self time.Duration
	work      uint64
}

func (t *tracer) sum(name, tag, group string) total {
	var tot total
	if t == nil {
		return tot
	}
	if len(t.self) != len(t.spans) {
		t.self = selfTimes(t.spans)
	}
	for i, s := range t.spans {
		if s.name != name || (tag != "" && s.tag != tag) || (group != "" && s.group != group) {
			continue
		}
		tot.count++
		tot.dur += s.end - s.start
		tot.self += t.self[i]
		tot.work += s.work
	}
	return tot
}

// writeChrome writes the spans as Chrome trace_event JSON (complete "X"
// events, microsecond timestamps), which Perfetto and chrome://tracing open.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, len(t.spans))
	for i, s := range t.spans {
		evs[i] = event{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.start) / 1e3,
			Dur:  float64(s.end-s.start) / 1e3,
			Args: map[string]any{"id": s.id, "parent": s.parent, "run": t.run, "tag": s.tag, "group": s.group, "work": s.work},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
