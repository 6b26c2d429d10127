package pipeline

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/regfile"
	"repro/internal/rename"
)

// This file holds the allocation-free bookkeeping structures of the hot
// simulation loop: the per-tag wakeup lists that replace the O(IQ) wakeup
// broadcast, the seq-ordered ready list that replaces the per-cycle IQ
// rescan, and the calendar ring that replaces the map-based writeback event
// queue. The issue queue has no storage of its own: an instruction waits in
// its ROB entry (inIQ), and iqCount bounds how many do. All of them reach a
// steady state with zero heap allocations per simulated cycle (asserted by
// TestCoreStepZeroAllocs).

// wakeList is the FIFO of source slots waiting for one (class, tag) value,
// in dispatch order. Its nodes are ROB source slots, robIdx*2+src, linked
// through Core.wakeNext and Core.wakePrev; noWaiter ends a list, and an
// empty list has head == noWaiter (its tail is then meaningless).
type wakeList struct{ head, tail int32 }

const noWaiter = -1

// classIdx maps a register class to the 0/1 index used by per-class arrays.
//
//repro:hotpath
func classIdx(class isa.RegClass) int {
	if class == isa.FPReg {
		return 1
	}
	return 0
}

// tagIdx flattens a wakeup tag into the wakeup-list index for its class.
//
//repro:hotpath
func tagIdx(tag rename.Tag) int {
	return int(tag.Reg)*(regfile.MaxShadow+1) + int(tag.Ver)
}

// resetIQ empties the issue queue: no entry waits, none is ready, and every
// wakeup list is empty (construction and full pipeline flush).
func (c *Core) resetIQ() {
	c.iqCount = 0
	c.readyList = c.readyList[:0]
	for ci := range c.wake {
		for i := range c.wake[ci] {
			c.wake[ci][i].head = noWaiter
		}
	}
}

// pushReady inserts a ROB index into the ready list, keeping it sorted by
// sequence number so issue always considers ready instructions oldest first
// (the same selection order as a full IQ scan).
//
//repro:hotpath
func (c *Core) pushReady(ri int32) {
	rl := append(c.readyList, ri)
	seq := c.rob[ri].seq
	i := len(rl) - 1
	for i > 0 && c.rob[rl[i-1]].seq > seq {
		rl[i] = rl[i-1]
		i--
	}
	rl[i] = ri
	c.readyList = rl
}

// enterIQ puts the entry just dispatched into ROB slot ri in the issue
// queue: each used source captures its value if it has been produced and
// otherwise joins the tail of its producer's wakeup list; an entry with
// nothing to wait for goes straight onto the ready list.
//
//repro:hotpath
func (c *Core) enterIQ(e *robEntry, ri int, micro bool) {
	c.iqCount++
	e.inIQ = true
	e.pending = 0
	for si := range e.src {
		s := &e.src[si]
		if !s.used {
			s.ready = true
			continue
		}
		c.captureIfReady(s, micro)
		if s.ready {
			continue
		}
		e.pending++
		n := int32(2*ri + si)
		l := &c.wake[classIdx(s.class)][tagIdx(s.tag)]
		c.wakeNext[n] = noWaiter
		if l.head == noWaiter {
			l.head = n
			c.wakePrev[n] = noWaiter
		} else {
			c.wakeNext[l.tail] = n
			c.wakePrev[n] = l.tail
		}
		l.tail = n
		if c.cfg.DebugInvariants && !micro {
			c.assertInFlightProducer(*s, e.pc, e.idx, e.seq)
		}
	}
	if e.pending == 0 {
		c.pushReady(int32(ri))
	}
}

// squashIQ takes the squashed entry in ROB slot ri out of the issue queue:
// each source still waiting leaves its wakeup list and, under early
// release, un-notes its pending read. The un-notes decide the early
// renamer's free-list order, so callers squash entries in ascending seq
// order.
//
//repro:hotpath
func (c *Core) squashIQ(e *robEntry, ri int) {
	for si := range e.src {
		s := &e.src[si]
		if !s.used || s.ready {
			continue
		}
		n := int32(2*ri + si)
		l := &c.wake[classIdx(s.class)][tagIdx(s.tag)]
		prev, next := c.wakePrev[n], c.wakeNext[n]
		if prev == noWaiter {
			l.head = next
		} else {
			c.wakeNext[prev] = next
		}
		if next != noWaiter {
			c.wakePrev[next] = prev
		} else {
			l.tail = prev
		}
		if c.cfg.Scheme == EarlyRelease {
			c.early(s.class).NoteSrcConsumed(s.tag)
		}
	}
	e.inIQ = false
	c.iqCount--
}

// checkWindow is the Config.DebugInvariants check of the issue-queue state
// kept in the ROB window, run by RunTo after every cycle. iqCount must count
// the window's inIQ entries, and each one's pending its used, not-ready
// sources. The ready list must hold, strictly in seq order, exactly the
// inIQ entries with nothing pending. Every wakeup list must be a well-linked
// FIFO, in dispatch order, of the not-ready sources of live entries that
// wait on its (class, tag), and each such source must sit on one list.
//
// The lists are checked from their sources: each waiting source's links
// must lead to earlier and later waiting sources on the same list that link
// back, or end at the list's head and tail. Those links leave one ordered
// chain per list, so the lists with a waiting source are exactly right, and
// counting the non-empty lists shows every other list is empty.
func (c *Core) checkWindow() error {
	inIQ, ready, heads := 0, 0, 0
	for i := 0; i < c.robCount; i++ {
		ri := c.robIdxAt(i)
		e := &c.rob[ri]
		if !e.inIQ {
			continue
		}
		n := 0
		for si := range e.src {
			s := &e.src[si]
			if !s.used || s.ready {
				continue
			}
			n++
			node := int32(2*ri + si)
			l := &c.wake[classIdx(s.class)][tagIdx(s.tag)]
			prev, next := c.wakePrev[node], c.wakeNext[node]
			if prev == noWaiter {
				heads++
			}
			if prev == noWaiter && l.head != node ||
				prev != noWaiter && (!c.waitsOn(prev, s) || !c.dispatchedBefore(prev, node) || c.wakeNext[prev] != node) {
				return c.windowErr("seq %d source %d is not linked after its wakeup list's head or an older waiter", e.seq, si)
			}
			if next == noWaiter && l.tail != node ||
				next != noWaiter && (!c.waitsOn(next, s) || !c.dispatchedBefore(node, next) || c.wakePrev[next] != node) {
				return c.windowErr("seq %d source %d is not linked before its wakeup list's tail or a younger waiter", e.seq, si)
			}
		}
		if n != int(e.pending) {
			return c.windowErr("seq %d waits on %d sources but counts %d pending", e.seq, n, e.pending)
		}
		inIQ++
		if n == 0 {
			ready++
		}
	}
	if inIQ != c.iqCount {
		return c.windowErr("%d entries are in the issue queue but iqCount is %d", inIQ, c.iqCount)
	}
	if len(c.readyList) != ready {
		return c.windowErr("%d entries are ready but the ready list holds %d", ready, len(c.readyList))
	}
	for k, ri := range c.readyList {
		e := &c.rob[ri]
		if !e.active || !e.inIQ || e.pending != 0 {
			return c.windowErr("ready list holds ROB slot %d (seq %d), which is not a ready IQ entry", ri, e.seq)
		}
		if k > 0 && c.rob[c.readyList[k-1]].seq >= e.seq {
			return c.windowErr("ready list is out of seq order at seq %d", e.seq)
		}
	}
	lists := 0
	for ci := range c.wake {
		for _, l := range c.wake[ci] {
			if l.head != noWaiter {
				lists++
			}
		}
	}
	if lists != heads {
		return c.windowErr("%d wakeup lists are non-empty but %d waiting sources head one", lists, heads)
	}
	return nil
}

// waitsOn reports whether wakeup node n is a not-ready source of a live
// issue-queue entry waiting on the same (class, tag) as s.
func (c *Core) waitsOn(n int32, s *iqSrc) bool {
	e := &c.rob[n>>1]
	ns := &e.src[n&1]
	return e.active && e.inIQ && ns.used && !ns.ready && ns.class == s.class && ns.tag == s.tag
}

// dispatchedBefore reports whether wakeup node a's source comes before node
// b's in dispatch order: an older entry, or the same entry's first source.
func (c *Core) dispatchedBefore(a, b int32) bool {
	sa, sb := c.rob[a>>1].seq, c.rob[b>>1].seq
	return sa < sb || sa == sb && a < b
}

func (c *Core) windowErr(format string, args ...any) error {
	return fmt.Errorf("pipeline: cycle %d: %s", c.cycle, fmt.Sprintf(format, args...))
}

// ---- writeback event ring ----

// initEvents sizes the calendar ring. The size only needs to exceed the
// longest writeback latency in flight; schedule grows it on demand.
func (c *Core) initEvents(size int) {
	c.evRing = c.carveEvents(size)
	c.evPending = 0
}

// carveEvents returns a ring of size empty buckets carved from one backing
// array, each with room for the IssueWidth events one cycle's issue can
// file, so a core fills its calendar with two allocations instead of one per
// bucket as the buckets are first written. The buckets' capacities are
// capped at their share: a bucket that overflows is moved by append to an
// array of its own and never spills into its neighbour.
func (c *Core) carveEvents(size int) [][]wbEvent {
	per := max(c.cfg.IssueWidth, 1)
	ring := make([][]wbEvent, size)
	block := make([]wbEvent, size*per)
	for i := range ring {
		ring[i] = block[i*per : i*per : (i+1)*per]
	}
	return ring
}

// schedule files ev for the given future cycle. The ring is indexed by
// cycle & (len-1); the invariant that every pending event is less than one
// ring length ahead of the current cycle keeps buckets single-cycle.
//
//repro:hotpath
func (c *Core) schedule(cycle uint64, ev wbEvent) {
	for cycle-c.cycle >= uint64(len(c.evRing)) {
		c.growEvents()
	}
	b := &c.evRing[cycle&uint64(len(c.evRing)-1)]
	*b = append(*b, ev)
	c.evPending++
}

// growEvents doubles the ring, copying pending buckets in order into a
// freshly carved one. A bucket at old index i holds events for the unique
// pending cycle >= c.cycle congruent to i modulo the old size.
func (c *Core) growEvents() {
	old := c.evRing
	oldSize := uint64(len(old))
	next := c.carveEvents(2 * len(old))
	for i := range old {
		if len(old[i]) == 0 {
			continue
		}
		cyc := c.cycle + (uint64(i)-c.cycle)%oldSize
		j := cyc & uint64(len(next)-1)
		next[j] = append(next[j], old[i]...)
	}
	c.evRing = next
}

// clearEvents drops every pending event (full pipeline flush).
func (c *Core) clearEvents() {
	if c.evPending == 0 {
		return
	}
	for i := range c.evRing {
		c.evRing[i] = c.evRing[i][:0]
	}
	c.evPending = 0
}

// ---- fetch/load/store queue rings ----
//
// The three in-order queues were previously plain slices popped with
// q = q[1:], which discards capacity and reallocates on every refill. Each is
// now a fixed-capacity ring addressed by (head, count).

//repro:hotpath
func (c *Core) fetchQAt(i int) *fetchRec {
	j := c.fqHead + i
	if j >= len(c.fetchQ) {
		j -= len(c.fetchQ)
	}
	return &c.fetchQ[j]
}

//repro:hotpath
func (c *Core) fetchQPop() {
	c.fqHead++
	if c.fqHead == len(c.fetchQ) {
		c.fqHead = 0
	}
	c.fqCount--
}

//repro:hotpath
func (c *Core) lqAt(i int) *lqEntry {
	j := c.lqHead + i
	if j >= len(c.lq) {
		j -= len(c.lq)
	}
	return &c.lq[j]
}

// lqPush appends e and returns its slot, which holds e until e leaves the
// queue.
//
//repro:hotpath
func (c *Core) lqPush(e lqEntry) int32 {
	j := c.lqHead + c.lqCnt
	if j >= len(c.lq) {
		j -= len(c.lq)
	}
	c.lq[j] = e
	c.lqCnt++
	return int32(j)
}

//repro:hotpath
func (c *Core) lqPopFront() {
	c.lqHead++
	if c.lqHead == len(c.lq) {
		c.lqHead = 0
	}
	c.lqCnt--
}

//repro:hotpath
func (c *Core) sqAt(i int) *sqEntry {
	j := c.sqHead + i
	if j >= len(c.sq) {
		j -= len(c.sq)
	}
	return &c.sq[j]
}

// sqPush appends e and returns its slot, which holds e until e leaves the
// queue.
//
//repro:hotpath
func (c *Core) sqPush(e sqEntry) int32 {
	j := c.sqHead + c.sqCnt
	if j >= len(c.sq) {
		j -= len(c.sq)
	}
	c.sq[j] = e
	c.sqCnt++
	return int32(j)
}

//repro:hotpath
func (c *Core) sqPopFront() {
	c.sqHead++
	if c.sqHead == len(c.sq) {
		c.sqHead = 0
	}
	c.sqCnt--
	c.sqPopped++
}
