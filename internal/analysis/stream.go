package analysis

import (
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/prog"
)

// Stream is the streaming, bounded-memory Figure 1-3 collector. It
// consumes the committed-instruction stream as batches of micro-op table
// rows (it is an emu.CommitSink) and folds every Report counter
// incrementally, so there is no per-dynamic-instruction defs slice and no
// map-heavy Finalize.
//
// The streaming argument: a def's fate is sealed when its logical register
// is redefined (or at end of trace) — at that close its consumer count is
// final, which settles the Figure 2 bucket immediately and settles whether
// the def was solely consumed. The only state that can outlive a def's
// close is the small amount needed for Figures 1 and 3: the set of defs
// first-consumed by one instruction S forms a "sole group" whose Figure 1
// classification (counted once per S; redefining preferred) and Figure 3
// claim (the earliest-created member whose sole status survives passes
// depth+1 to the consumer's own def) resolve as members close. Groups and
// their member records live in pooled freelist-backed slices, so the
// steady state allocates nothing (Reset + rerun is allocation-free, pinned
// by TestStreamSteadyStateZeroAllocs) and memory is bounded by the number
// of still-unresolved groups, which register pressure keeps tiny in
// practice: every member is pinned by one of 64 live slots or already
// closed, and closed members resolve their group eagerly.
//
// Exact Report equality against the test-only reference Collector
// (collector_test.go) over every workload and seeded random programs is
// pinned by TestStreamMatchesOracle*.
type Stream struct {
	table *prog.UOpTable

	// live[class][reg] is the pool handle of the currently-live def
	// (noRec when the register still holds its pre-trace value).
	live [2][32]int32

	recs       []srec
	groups     []sgrp
	freeRecs   []int32
	freeGroups []int32
	work       []int32 // group handles with a pending state change to apply

	defSeq    uint64 // def creation counter (claim arbitration order)
	rep       Report
	finalized bool
}

// noRec / noGroup are the null pool handles.
const (
	noRec   int32 = -1
	noGroup int32 = -1
)

// Member resolution states. A member is pending until its sole-consumer
// status is known: sole once it closes with exactly one consumer, multi as
// soon as a second consumer arrives (no need to wait for the close).
const (
	mPending uint8 = iota
	mSole
	mMulti
)

// srec is one pooled def record. It is reference-counted: one reference
// for the live register slot, one for group membership, one for being a
// group's child; the handle returns to the freelist at zero.
type srec struct {
	seq        uint64 // creation order
	refs       int32
	depth      int32 // Figure 3 chain position (valid when depthKnown)
	consGroup  int32 // group joined at first consumption (noGroup if none)
	memberIdx  uint8 // index of this rec in consGroup's members
	consumers  uint8 // saturates at 7 (histogram lumps 6+; sole needs ==1)
	depthKnown bool
	closed     bool
}

// sgrp is the sole group of one consuming instruction S: the defs
// first-consumed at S whose register class matches S's destination class
// (members of other classes provably never affect any Report counter).
// members[0..n-1] are ordered by creation seq, mirroring the oracle's
// creation-order claim scan.
type sgrp struct {
	members   [2]int32
	child     int32 // the def S itself created
	state     [2]uint8
	n         uint8
	alive     bool
	fig1Done  bool // Figure 1 classification of S settled
	claimDone bool // Figure 3 claim on child settled
}

// NewStream returns an empty collector for p's micro-op table with warm
// pools sized for typical register pressure.
func NewStream(p *prog.Program) *Stream {
	c := &Stream{
		table:      p.UOps(),
		recs:       make([]srec, 0, 256),
		groups:     make([]sgrp, 0, 128),
		freeRecs:   make([]int32, 0, 256),
		freeGroups: make([]int32, 0, 128),
		work:       make([]int32, 0, 64),
	}
	for cl := range c.live {
		for r := range c.live[cl] {
			c.live[cl][r] = noRec
		}
	}
	return c
}

// Reset returns the collector to its initial state, keeping pool capacity,
// so a warmed collector re-analyzes a trace without allocating.
func (c *Stream) Reset() {
	for cl := range c.live {
		for r := range c.live[cl] {
			c.live[cl][r] = noRec
		}
	}
	c.recs = c.recs[:0]
	c.groups = c.groups[:0]
	c.freeRecs = c.freeRecs[:0]
	c.freeGroups = c.freeGroups[:0]
	c.work = c.work[:0]
	c.defSeq = 0
	c.rep = Report{}
	c.finalized = false
}

// CommitBatch implements emu.CommitSink: it processes rows committed rows,
// reading operand metadata off the shared pre-decoded micro-op table.
//
//repro:hotpath
func (c *Stream) CommitBatch(_ uint64, rows []uint32) {
	t := c.table
	for _, row := range rows {
		c.rep.TotalInsts++
		in := &t.Inst[row]
		s1 := t.Src1Class[row]
		s2 := t.Src2Class[row]
		destClass := t.DestClass[row]
		destLog := t.DestLog[row]

		// Record consumption of each (deduplicated) register source; fN
		// reports the source's first-ever consumption, which is what makes
		// it a candidate group member below.
		var h1, h2 int32 = noRec, noRec
		var f1, f2 bool
		if s1 != isa.NoReg {
			h1, f1 = c.consume(s1, in.Rs1)
		}
		if s2 != isa.NoReg && !(s2 == s1 && in.Rs2 == in.Rs1) {
			h2, f2 = c.consume(s2, in.Rs2)
		}

		if destClass == isa.NoReg {
			continue
		}
		c.rep.DestInsts++
		c.rep.TotalDefs++
		child := c.allocRec()

		// Gather the sole-group members: sources first-consumed here whose
		// class matches the destination's. A member that is also the
		// destination register is the redefining case — it closes at this
		// very instruction with exactly one consumer, so it is always sole
		// and Figure 1 classifies the group immediately.
		var m0, m1 int32 = noRec, noRec
		var r0, r1 bool
		if f1 && s1 == destClass {
			m0 = h1
			r0 = in.Rs1 == destLog
		}
		if f2 && s2 == destClass {
			if m0 == noRec {
				m0, r0 = h2, in.Rs2 == destLog
			} else {
				m1, r1 = h2, in.Rs2 == destLog
			}
		}
		if m0 != noRec {
			c.newGroup(m0, r0, m1, r1, child)
		} else {
			// No group will ever claim this def: its chain depth is 0 now.
			c.recs[child].depthKnown = true
		}

		// Redefinition closes the previous def of the destination register.
		if prev := c.live[destClass][destLog]; prev != noRec {
			c.closeRec(prev)
		}
		c.live[destClass][destLog] = child
		c.drain()
	}
}

// consume records one consumption of the live def of (class, reg),
// returning its handle and whether this was its first consumption.
//
//repro:hotpath
func (c *Stream) consume(class isa.RegClass, reg uint8) (int32, bool) {
	h := c.live[class][reg]
	if h == noRec {
		return noRec, false // consuming the initial (pre-trace) value
	}
	r := &c.recs[h]
	first := r.consumers == 0
	if r.consumers < 7 {
		r.consumers++
		if r.consumers == 2 && r.consGroup != noGroup {
			// Second consumer: the member can never be sole. Its group
			// learns this immediately rather than at close, which lets
			// blocked claims settle as early as possible.
			g := &c.groups[r.consGroup]
			if g.state[r.memberIdx] == mPending {
				g.state[r.memberIdx] = mMulti
				c.work = append(c.work, r.consGroup)
			}
		}
	}
	return h, first
}

// allocRec takes a record off the freelist (or grows the pool) and
// initializes it with one reference for the live slot it is about to fill.
//
//repro:hotpath
func (c *Stream) allocRec() int32 {
	var h int32
	if n := len(c.freeRecs); n > 0 {
		h = c.freeRecs[n-1]
		c.freeRecs = c.freeRecs[:n-1]
	} else {
		h = int32(len(c.recs))
		c.recs = append(c.recs, srec{})
	}
	c.defSeq++
	c.recs[h] = srec{seq: c.defSeq, refs: 1, consGroup: noGroup}
	return h
}

// newGroup creates the sole group of the current instruction with members
// m0 (and optionally m1), redefinition flags r0/r1, and the instruction's
// own def as child.
//
//repro:hotpath
func (c *Stream) newGroup(m0 int32, r0 bool, m1 int32, r1 bool, child int32) {
	// Order members by creation seq: the claim arbitration below walks them
	// in order, mirroring the oracle's creation-order scan.
	if m1 != noRec && c.recs[m1].seq < c.recs[m0].seq {
		m0, m1 = m1, m0
		r0, r1 = r1, r0
	}
	var gh int32
	if n := len(c.freeGroups); n > 0 {
		gh = c.freeGroups[n-1]
		c.freeGroups = c.freeGroups[:n-1]
	} else {
		gh = int32(len(c.groups))
		c.groups = append(c.groups, sgrp{})
	}
	g := &c.groups[gh]
	*g = sgrp{child: child, n: 1, alive: true}
	g.members[0] = m0
	g.members[1] = noRec
	if m1 != noRec {
		g.members[1] = m1
		g.n = 2
	}
	c.recs[m0].consGroup = gh
	c.recs[m0].memberIdx = 0
	c.recs[m0].refs++
	if m1 != noRec {
		c.recs[m1].consGroup = gh
		c.recs[m1].memberIdx = 1
		c.recs[m1].refs++
	}
	c.recs[child].refs++
	if r0 || r1 {
		// The redefining member is closed by this very instruction with
		// exactly one consumer, so it is certainly sole and the redefining
		// classification wins regardless of the other member's fate.
		c.rep.SingleUseRedef++
		g.fig1Done = true
	}
	c.work = append(c.work, gh)
}

// closeRec seals a def: its consumer count is final, which settles its
// Figure 2 bucket and (if it is a pending group member) its sole status.
//
//repro:hotpath
func (c *Stream) closeRec(h int32) {
	r := &c.recs[h]
	r.closed = true
	k := r.consumers
	if k > 6 {
		k = 6
	}
	c.rep.ConsumerHist[k]++
	if r.consGroup != noGroup {
		g := &c.groups[r.consGroup]
		if g.state[r.memberIdx] == mPending {
			if r.consumers == 1 {
				g.state[r.memberIdx] = mSole
			} else {
				g.state[r.memberIdx] = mMulti
			}
			c.work = append(c.work, r.consGroup)
		}
	}
	c.unref(h)
}

// unref drops one reference; at zero the handle returns to the freelist.
//
//repro:hotpath
func (c *Stream) unref(h int32) {
	r := &c.recs[h]
	r.refs--
	if r.refs == 0 {
		c.freeRecs = append(c.freeRecs, h)
	}
}

// settleDepth records a def's final Figure 3 chain position and re-wakes
// the group (if any) whose claim may be waiting on it.
//
//repro:hotpath
func (c *Stream) settleDepth(h int32, d int32) {
	r := &c.recs[h]
	r.depth = d
	r.depthKnown = true
	if r.consGroup != noGroup {
		c.work = append(c.work, r.consGroup)
	}
}

// drain applies pending group state changes until none remain. advance is
// idempotent, so spurious wakes are harmless; termination follows because
// every push is caused by a state transition that happens at most once per
// member (pending→sole/multi, depth settling) and claim chains are acyclic
// (a claim winner is always created strictly before the child it claims).
//
//repro:hotpath
func (c *Stream) drain() {
	for len(c.work) > 0 {
		gh := c.work[len(c.work)-1]
		c.work = c.work[:len(c.work)-1]
		c.advance(gh)
	}
}

// advance tries to settle a group's Figure 1 classification and Figure 3
// claim from the member states known so far, freeing the group once both
// are done.
//
//repro:hotpath
func (c *Stream) advance(gh int32) {
	g := &c.groups[gh]
	if !g.alive {
		return
	}

	if !g.fig1Done {
		// Counted (as non-redefining) as soon as any member is certainly
		// sole; certainly uncounted once every member is multi. The
		// redefining case was settled at group creation.
		sole := false
		pending := false
		for i := uint8(0); i < g.n; i++ {
			switch g.state[i] {
			case mSole:
				sole = true
			case mPending:
				pending = true
			}
		}
		if sole {
			c.rep.SingleUseOther++
			g.fig1Done = true
		} else if !pending {
			g.fig1Done = true // all multi: S never counted
		}
	}

	if !g.claimDone {
		// The claim winner is the earliest-created member whose sole status
		// survives; it passes depth+1 to the child. Arbitration must wait
		// both on earlier members still pending (they would win) and on the
		// winner's own depth still propagating down its chain.
		claimed := false
		for i := uint8(0); i < g.n; i++ {
			st := g.state[i]
			if st == mPending {
				return // an earlier member could still win the claim
			}
			if st == mMulti {
				continue
			}
			w := &c.recs[g.members[i]]
			if !w.depthKnown {
				return // re-woken when the winner's depth settles
			}
			nd := w.depth + 1
			if nd <= 3 {
				c.rep.ReuseAtDepth[nd]++
			} else {
				c.rep.ReuseDeeper++
			}
			c.settleDepth(g.child, nd)
			claimed = true
			break
		}
		if !claimed {
			c.settleDepth(g.child, 0) // no sole member: fresh allocation
		}
		g.claimDone = true
	}

	if g.fig1Done && g.claimDone {
		g.alive = false
		for i := uint8(0); i < g.n; i++ {
			mh := g.members[i]
			// A multi member may still be live; detach it so later
			// consumptions and its eventual close skip the dead group.
			c.recs[mh].consGroup = noGroup
			c.unref(mh)
		}
		c.unref(g.child)
		c.freeGroups = append(c.freeGroups, gh)
	}
}

// Finalize closes every still-live def (end of trace) and returns the
// report. Idempotent; further CommitBatch calls are not allowed after it
// (use Reset to start over).
func (c *Stream) Finalize() Report {
	if !c.finalized {
		c.finalized = true
		for cl := range c.live {
			for r := range c.live[cl] {
				if h := c.live[cl][r]; h != noRec {
					c.closeRec(h)
					c.live[cl][r] = noRec
				}
			}
		}
		c.drain()
	}
	return c.rep
}

// pendingGroups counts unresolved groups — zero after Finalize (asserted
// by tests; nonzero would mean a lost wakeup).
func (c *Stream) pendingGroups() int {
	n := 0
	for i := range c.groups {
		if c.groups[i].alive {
			n++
		}
	}
	return n
}

// poolInUse counts records not returned to the freelist — zero after
// Finalize, proving the refcounts balance.
func (c *Stream) poolInUse() int {
	return len(c.recs) - len(c.freeRecs)
}

// AnalyzeProgram runs p to completion on the architectural emulator's
// batched commit-sink path and collects the report through the streaming
// collector. It produces a Report identical to Analyze over a fresh
// emulator (pinned by test) at a fraction of the time and allocation cost;
// the figure harnesses ride this entry point.
func AnalyzeProgram(p *prog.Program, maxInsts uint64) (Report, error) {
	c := NewStream(p)
	if _, err := emu.New(p).RunToHaltBatch(maxInsts, c); err != nil {
		return Report{}, err
	}
	return c.Finalize(), nil
}
