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
// depth+1 to the consumer's own def) resolve as members close.
//
// A committed row reads one packed operand record and updates the
// per-register slots of its sources and destination: an open def's
// consumer count, creation seq and chain depth live in its slot. Most rows
// need no group. When the earliest-created candidate is the register S
// redefines, it closes at S with one consumer, so it is sole and wins the
// claim; if its depth is known, S's Figure 1 and Figure 3 counts are final
// at once. Only a def that joins a waiting group, or is the child of one,
// takes a pooled record. A settled claim fixes one child's depth, so it can
// unblock only the one group that child is a member of: each close walks
// one chain of groups, with no work list. Groups and records live in
// freelist-backed pools, so the steady state allocates nothing (Reset +
// rerun is allocation-free, pinned by TestStreamSteadyStateZeroAllocs) and
// memory is bounded by the number of still-unresolved groups, which
// register pressure keeps small in practice.
//
// Exact Report equality against the test-only reference Collector
// (collector_test.go) is pinned over every workload, seeded random programs
// and the FuzzStreamMatchesOracle corpus.
type Stream struct {
	rows []srow // packed operands of each static instruction

	// regs[slot] is the open def of one logical register; slot noSlot is
	// never written, so it always reads as a pre-trace value.
	regs [noSlot + 1]sreg
	// hist[k] counts closed defs with k consumers (7 meaning 7 or more);
	// closes of pre-trace values land in hist[preTrace], which Finalize drops.
	hist [preTrace + 1]uint64

	recs       []srec
	groups     []sgrp
	freeRecs   []int32
	freeGroups []int32

	defSeq    uint64 // def creation counter (claim arbitration order)
	rep       Report
	finalized bool
}

// noSlot marks an absent operand in srow. Register slots are
// class*32 + register, so slot>>5 is the register class.
const noSlot uint8 = 2 * 32

// srow is one static instruction's register operands as slots. A second
// source that repeats the first is dropped when the row is packed: a
// register read twice is one consumer.
type srow struct {
	src1, src2, dest uint8
}

// sreg is the open def of one logical register.
type sreg struct {
	seq   uint64 // creation order
	depth int32  // Figure 3 chain position, valid while rec == noRec
	rec   int32  // pooled record, noRec unless the def is in or under a group
	cons  uint8  // consumers so far, saturating at 7 (sole needs ==1), or preTrace
}

// preTrace is the consumer count of a register that still holds its
// pre-trace value. It reads as saturated, so a read of it is never a first
// consumption.
const preTrace uint8 = 8

// preTraceRegs is the register file before the first commit.
var preTraceRegs = func() (r [noSlot + 1]sreg) {
	for i := range r {
		r[i] = sreg{rec: noRec, cons: preTrace}
	}
	return r
}()

// noRec / noGroup are the null pool handles.
const (
	noRec   int32 = -1
	noGroup int32 = -1
)

// Member resolution states. A member is pending until it closes: sole with
// exactly one consumer, multi otherwise. An absent second member reads as
// multi: it never counts and never wins.
const (
	mPending uint8 = iota
	mSole
	mMulti
)

// srec is the pooled record of a def that joined a waiting group or is the
// child of one. It is reference-counted: one reference for the live
// register slot, one for group membership, one for being a group's child;
// the handle returns to the freelist at zero.
type srec struct {
	refs   int32
	depth  int32 // Figure 3 chain position, -1 until the claim on it settles
	group  int32 // group joined at first consumption (noGroup if none)
	member uint8 // index of this rec in group's members
}

// sgrp is the sole group of one consuming instruction S: the defs
// first-consumed at S whose register class matches S's destination class
// (members of other classes provably never affect any Report counter).
// members are ordered by creation seq, mirroring the oracle's
// creation-order claim scan. A group is freed when its claim settles,
// which also settles Figure 1: a claim needs a sole winner or every member
// multi.
type sgrp struct {
	members  [2]int32
	child    int32 // the def S itself created
	state    [2]uint8
	fig1Done bool // Figure 1 classification of S settled
}

// NewStream returns an empty collector for p, with p's operands packed one
// record per static instruction and warm pools sized for typical register
// pressure.
func NewStream(p *prog.Program) *Stream {
	t := p.UOps()
	c := &Stream{
		rows:       make([]srow, len(t.Inst)),
		regs:       preTraceRegs,
		recs:       make([]srec, 0, 64),
		groups:     make([]sgrp, 0, 64),
		freeRecs:   make([]int32, 0, 64),
		freeGroups: make([]int32, 0, 64),
	}
	for i := range c.rows {
		in := &t.Inst[i]
		r := srow{
			src1: slotOf(t.Src1Class[i], in.Rs1),
			src2: slotOf(t.Src2Class[i], in.Rs2),
			dest: slotOf(t.DestClass[i], t.DestLog[i]),
		}
		if r.src2 == r.src1 {
			r.src2 = noSlot
		}
		c.rows[i] = r
	}
	return c
}

func slotOf(class isa.RegClass, reg uint8) uint8 {
	if class == isa.NoReg {
		return noSlot
	}
	return uint8(class)<<5 | reg
}

// Reset returns the collector to its initial state, keeping pool capacity,
// so a warmed collector re-analyzes a trace without allocating.
func (c *Stream) Reset() {
	c.regs = preTraceRegs
	c.hist = [preTrace + 1]uint64{}
	c.recs = c.recs[:0]
	c.groups = c.groups[:0]
	c.freeRecs = c.freeRecs[:0]
	c.freeGroups = c.freeGroups[:0]
	c.defSeq = 0
	c.rep = Report{}
	c.finalized = false
}

// CommitBatch implements emu.CommitSink: it processes the committed rows,
// reading each one's packed operand record.
//
//repro:hotpath
func (c *Stream) CommitBatch(_ uint64, rows []uint32) {
	c.rep.TotalInsts += uint64(len(rows))
	for _, row := range rows {
		r := c.rows[row]
		// fN reports the source's first-ever consumption, which is what
		// makes it a candidate group member below.
		f1 := c.consume(r.src1)
		f2 := c.consume(r.src2)
		if r.dest == noSlot {
			continue
		}
		c.defSeq++

		// The candidates are the sources first-consumed here whose class
		// matches the destination's, m0 the earlier-created.
		m0, m1 := noSlot, noSlot
		if f1 && r.src1>>5 == r.dest>>5 {
			m0 = r.src1
		}
		if f2 && r.src2>>5 == r.dest>>5 {
			if m0 == noSlot {
				m0 = r.src2
			} else if c.regs[r.src2].seq < c.regs[m0].seq {
				m0, m1 = r.src2, m0
			} else {
				m1 = r.src2
			}
		}

		var depth int32 // no candidate: a fresh allocation at depth 0
		child := noRec
		if m0 != noSlot {
			// An earliest candidate that is also the destination closes at
			// this very instruction with one consumer: it is sole, so S is a
			// redefining single use and the candidate wins the claim.
			if w := c.depthOf(m0); m0 == r.dest && w >= 0 {
				c.rep.SingleUseRedef++
				depth = w + 1
				c.countReuse(depth)
			} else {
				child = c.newGroup(m0, m1, r.dest)
			}
		}

		// Redefinition closes the previous def of the destination register.
		d := &c.regs[r.dest]
		c.close(d)
		*d = sreg{seq: c.defSeq, depth: depth, rec: child}
	}
}

// consume records one read of register slot i and reports whether it was
// the first consumption of a def.
//
//repro:hotpath
func (c *Stream) consume(i uint8) bool {
	s := &c.regs[i]
	n := s.cons
	if n < 7 {
		s.cons = n + 1
	}
	return n == 0
}

// depthOf returns the chain depth of the def open in slot i, -1 while the
// claim on it is pending.
//
//repro:hotpath
func (c *Stream) depthOf(i uint8) int32 {
	s := &c.regs[i]
	if s.rec == noRec {
		return s.depth
	}
	return c.recs[s.rec].depth
}

// countReuse credits one Figure 3 reuse at chain depth d >= 1.
//
//repro:hotpath
func (c *Stream) countReuse(d int32) {
	if d <= 3 {
		c.rep.ReuseAtDepth[d]++
	} else {
		c.rep.ReuseDeeper++
	}
}

// close seals the def open in s: its consumer count is final, which settles
// its Figure 2 bucket and (if it has a record) its group membership.
//
//repro:hotpath
func (c *Stream) close(s *sreg) {
	c.hist[s.cons]++
	if s.rec != noRec {
		c.closeRec(s)
	}
}

// closeRec resolves the group membership of a closing def that has a
// record, walks the chain of groups that can settle, and drops the live
// slot's reference. It is kept out of close so that close inlines.
//
//repro:hotpath
func (c *Stream) closeRec(s *sreg) {
	r := &c.recs[s.rec]
	if gh := r.group; gh != noGroup {
		st := mMulti
		if s.cons == 1 {
			st = mSole
		}
		c.groups[gh].state[r.member] = st
		for gh != noGroup {
			gh = c.advance(gh)
		}
	}
	c.unref(s.rec)
}

// newGroup opens the sole group of the current instruction over candidate
// slots m0 and m1 (m1 later-created, or noSlot), one of which may be the
// destination, and returns the record of the instruction's own def: the
// group's child, installed in the destination slot by the caller.
//
//repro:hotpath
func (c *Stream) newGroup(m0, m1, dest uint8) int32 {
	var gh int32
	if n := len(c.freeGroups); n > 0 {
		gh = c.freeGroups[n-1]
		c.freeGroups = c.freeGroups[:n-1]
	} else {
		gh = int32(len(c.groups))
		c.groups = append(c.groups, sgrp{})
	}
	child := c.allocRec(-1)
	c.recs[child].refs++ // the group's child reference
	g := &c.groups[gh]
	*g = sgrp{members: [2]int32{noRec, noRec}, child: child, state: [2]uint8{mMulti, mMulti}}
	if dest == m0 || dest == m1 {
		// The redefining member closes at this instruction with one
		// consumer, so it is sole: S is a redefining single use whatever
		// the other member's fate. The claim still waits, on m0's status
		// or on the winner's depth.
		c.rep.SingleUseRedef++
		g.fig1Done = true
	}
	c.join(gh, 0, m0)
	if m1 != noSlot {
		c.join(gh, 1, m1)
	}
	return child
}

// join makes the def open in slot i the pending member k of group gh,
// giving it a record if it has none.
//
//repro:hotpath
func (c *Stream) join(gh int32, k uint8, i uint8) {
	s := &c.regs[i]
	if s.rec == noRec {
		s.rec = c.allocRec(s.depth)
	}
	r := &c.recs[s.rec]
	r.refs++
	r.group = gh
	r.member = k
	g := &c.groups[gh]
	g.members[k] = s.rec
	g.state[k] = mPending
}

// allocRec takes a record off the freelist (or grows the pool) and
// initializes it with one reference, for the live slot it is about to fill.
//
//repro:hotpath
func (c *Stream) allocRec(depth int32) int32 {
	var h int32
	if n := len(c.freeRecs); n > 0 {
		h = c.freeRecs[n-1]
		c.freeRecs = c.freeRecs[:n-1]
	} else {
		h = int32(len(c.recs))
		c.recs = append(c.recs, srec{})
	}
	c.recs[h] = srec{refs: 1, depth: depth, group: noGroup}
	return h
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

// advance settles what group gh's member states now allow. When its claim
// settles it fixes the child's depth, frees the group and returns the one
// group that depth can unblock — the group the child is a member of, or
// noGroup. Otherwise it returns noGroup.
//
//repro:hotpath
func (c *Stream) advance(gh int32) int32 {
	g := &c.groups[gh]
	if !g.fig1Done {
		// Counted (as non-redefining) as soon as any member is certainly
		// sole; certainly uncounted once every member is multi. The
		// redefining case was settled at group creation.
		switch {
		case g.state[0] == mSole || g.state[1] == mSole:
			c.rep.SingleUseOther++
			g.fig1Done = true
		case g.state[0] == mMulti && g.state[1] == mMulti:
			g.fig1Done = true // S is never counted
		}
	}

	// The claim winner is the earliest-created member whose sole status
	// survives; it passes depth+1 to the child. Arbitration waits both on
	// earlier members still pending (they would win) and on the winner's
	// own depth still propagating down its chain.
	var depth int32 // no sole member: the child is a fresh allocation
	for k, st := range g.state {
		if st == mPending {
			return noGroup
		}
		if st == mSole {
			w := c.recs[g.members[k]].depth
			if w < 0 {
				return noGroup // walked to again when the winner's depth settles
			}
			depth = w + 1
			c.countReuse(depth)
			break
		}
	}
	ch := &c.recs[g.child]
	ch.depth = depth
	next := ch.group
	for _, mh := range g.members {
		if mh != noRec {
			// A multi member may still be live; detach it so its eventual
			// close skips the dead group.
			c.recs[mh].group = noGroup
			c.unref(mh)
		}
	}
	c.unref(g.child)
	c.freeGroups = append(c.freeGroups, gh)
	return next
}

// Finalize closes every still-live def (end of trace) and returns the
// report. Idempotent; further CommitBatch calls are not allowed after it
// (use Reset to start over).
func (c *Stream) Finalize() Report {
	if !c.finalized {
		c.finalized = true
		for i := range c.regs {
			c.close(&c.regs[i])
		}
		c.regs = preTraceRegs
		copy(c.rep.ConsumerHist[:6], c.hist[:6])
		c.rep.ConsumerHist[6] = c.hist[6] + c.hist[7]
		c.rep.DestInsts = c.defSeq
		c.rep.TotalDefs = c.defSeq
	}
	return c.rep
}

// pendingGroups counts unresolved groups — zero after Finalize (asserted
// by tests; nonzero would mean a lost wakeup).
func (c *Stream) pendingGroups() int {
	return len(c.groups) - len(c.freeGroups)
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
