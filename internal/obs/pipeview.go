package obs

import (
	"fmt"
	"io"
)

// PipeView is a streaming Kanata-style text pipeline view: each committed
// instruction prints one line with a per-cycle timeline of its trip through
// the pipeline (F fetch, R rename, I issue, W writeback, C commit, lowercase
// fill between stages), its rename decision, and its disassembly. It
// replaces the hand-rolled commit-hook printing cmd/trace used to carry.
//
// Skip and Limit bound the printed window by committed-instruction count
// (repair micro-ops included), mirroring the old -skip/-n flags.
type PipeView struct {
	W     io.Writer
	Skip  uint64
	Limit uint64 // 0 = unlimited
	Width int    // timeline columns (default 40)

	ring       []TraceRec
	mask       uint64
	seen       uint64
	printed    uint64
	headerDone bool
	err        error
}

// NewPipeView creates a pipeline view writing to w, printing limit
// instructions after skipping skip (limit 0 = unlimited).
func NewPipeView(w io.Writer, skip, limit uint64) *PipeView {
	n := 1024
	return &PipeView{
		W: w, Skip: skip, Limit: limit, Width: 40,
		ring: make([]TraceRec, n),
		mask: uint64(n - 1),
	}
}

// Err returns the first write error encountered.
func (p *PipeView) Err() error { return p.err }

// Printed returns how many instruction lines have been written.
func (p *PipeView) Printed() uint64 { return p.printed }

// Inst implements Observer: accumulate stage cycles; render at commit.
func (p *PipeView) Inst(e InstEvent) {
	r := &p.ring[e.Seq&p.mask]
	r.record(e)
	if e.Stage != StageCommit {
		return
	}
	p.seen++
	if p.seen <= p.Skip || (p.Limit > 0 && p.printed >= p.Limit) {
		return
	}
	p.printed++
	p.render(r)
}

// Core implements Observer.
func (p *PipeView) Core(CoreEvent) {}

// Tick implements Observer.
func (p *PipeView) Tick(Tick) {}

func (p *PipeView) render(r *TraceRec) {
	if p.err != nil {
		return
	}
	if !p.headerDone {
		p.headerDone = true
		if _, err := fmt.Fprintf(p.W, "%7s %9s  %-*s  %-6s %-7s  %s\n",
			"seq", "cycle", p.Width, "pipeline (F R I W C)", "kind", "dest", "instruction"); err != nil {
			p.err = err
			return
		}
	}
	mark := r.Kind.String()
	dest := ""
	if r.Kind != RenameNone {
		dest = fmt.Sprintf("P%d.%d", r.Dest.Reg, r.Dest.Ver)
	}
	inst := r.Inst.String()
	if r.Micro {
		inst = fmt.Sprintf("mvrepair %s", dest)
	}
	suffix := ""
	if r.Branch {
		if r.Taken {
			suffix = "  [taken]"
		} else {
			suffix = "  [not taken]"
		}
	}
	base := r.cycles[StageCommit]
	if r.Has(StageFetch) {
		base = r.cycles[StageFetch]
	}
	if _, err := fmt.Fprintf(p.W, "%7d %9d  %-*s  %-6s %-7s  %s%s\n",
		r.Seq, base, p.Width, p.timeline(r, base), mark, dest, inst, suffix); err != nil {
		p.err = err
	}
}

// stageChars maps a stage to its timeline letter (uppercase at the event
// cycle, lowercase filling until the next stage begins).
var stageChars = [numStages]byte{'F', 'R', 'I', 'W', 'C', 'X'}

// timeline renders one instruction's per-cycle lane, e.g. "FffRrrIwwwC":
// the uppercase letter marks the cycle a stage fired, lowercase letters fill
// the span until the next stage begins. A span longer than Width is
// compressed with '~' at the elision point.
func (p *PipeView) timeline(r *TraceRec, base uint64) string {
	last := base
	for s := StageFetch; s < numStages; s++ {
		if r.Has(s) && r.cycles[s] > last {
			last = r.cycles[s]
		}
	}
	n := int(last - base + 1)
	buf := make([]byte, n)
	fill := byte('.')
	for i := 0; i < n; i++ {
		cyc := base + uint64(i)
		ch := fill
		for s := StageFetch; s < numStages; s++ {
			if r.Has(s) && r.cycles[s] == cyc {
				ch = stageChars[s]
				fill = ch | 0x20 // lowercase continuation
			}
		}
		buf[i] = ch
	}
	if n > p.Width {
		// Keep the head and tail, mark the elision.
		head := p.Width * 2 / 3
		tail := p.Width - head - 1
		return string(buf[:head]) + "~" + string(buf[n-tail:])
	}
	return string(buf)
}
