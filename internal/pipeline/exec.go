package pipeline

import (
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/prog"
	"repro/internal/rename"
)

// issue selects up to IssueWidth ready instructions from the ready list
// (sorted oldest first, so selection order matches a full IQ scan), subject
// to functional-unit availability, executes them functionally, and schedules
// their writeback events. Entries blocked by a busy FU or by memory
// disambiguation stay on the list and are retried next cycle.
//
//repro:hotpath
func (c *Core) issue() {
	issued := 0
	rl := c.readyList
	w := 0
	for r := 0; r < len(rl); r++ {
		ri := rl[r]
		if issued >= c.cfg.IssueWidth {
			w += copy(rl[w:], rl[r:])
			break
		}
		e := &c.rob[ri]
		slot := c.freeFUSlot(e.fu)
		if slot < 0 {
			rl[w] = ri
			w++
			continue
		}
		lat, ok := c.execute(e)
		if !ok {
			// Load blocked by memory disambiguation; try again later.
			rl[w] = ri
			w++
			continue
		}
		if e.unpipe {
			c.fuBusy[e.fu][slot] = c.cycle + uint64(lat)
		} else {
			c.fuBusy[e.fu][slot] = c.cycle + 1
		}
		c.schedule(c.cycle+uint64(lat), wbEvent{robIdx: int(ri), seq: e.seq})
		if c.o != nil {
			c.o.Inst(obs.InstEvent{
				Cycle: c.cycle, Seq: e.seq, PC: e.pc,
				Stage: obs.StageIssue, Inst: c.instAt(e.idx), Micro: e.micro,
			})
		}
		e.inIQ = false
		c.iqCount--
		issued++
	}
	c.readyList = rl[:w]
}

//repro:hotpath
func (c *Core) freeFUSlot(fu isa.FU) int {
	for s, busyUntil := range c.fuBusy[fu] {
		if busyUntil <= c.cycle {
			return s
		}
	}
	return -1
}

// execute computes the entry's result and returns its total latency. For
// loads it performs disambiguation, forwarding, and the cache access;
// ok=false means the load cannot issue yet (an older store address is
// unknown).
//
//repro:hotpath
func (c *Core) execute(e *robEntry) (int, bool) {
	v0, v1 := e.src[0].val, e.src[1].val

	if e.micro {
		e.resultVal = v0
		return int(e.lat), true
	}
	// Non-micro entries index the micro-op table; the raw instruction is one
	// load here, everything structural was pre-decoded.
	in := c.uops.Inst[e.idx]

	switch {
	case e.isLoad:
		addr := v0 + uint64(in.Imm)
		lat, val, exc, ok := c.loadAccess(e, addr)
		if !ok {
			return 0, false
		}
		e.effAddr = addr
		e.exc = exc
		e.excAddr = addr
		e.resultVal = val
		l := &c.lq[e.lsq]
		l.done = true
		l.addr = addr
		return lat, true

	case e.isStore:
		addr := v0 + uint64(in.Imm)
		e.effAddr = addr
		e.resultVal = v1 // store data
		if addr%8 != 0 {
			e.exc = excMisalign
			e.excAddr = addr
		} else if c.pageAbsent(addr) {
			e.exc = excPageFault
			e.excAddr = addr
		}
		// Record the address/data so younger loads can forward.
		s := &c.sq[e.lsq]
		s.addrKnown = true
		s.addr = addr
		s.val = v1
		if c.memWait != nil && e.exc == excNone {
			c.checkOrderViolation(e.seq, addr)
		}
		return int(e.lat), true

	case e.isBranch:
		taken, target := branchOutcome(in, c.uops.Flags[e.idx], e.pc, v0, v1)
		e.actualTaken = taken
		e.actualTarget = target
		if taken {
			e.nextPC = target
		}
		if in.Op == isa.BL {
			e.resultVal = e.pc + isa.InstBytes
		}
		return int(e.lat), true

	default:
		e.resultVal = emu.ExecOps(in, v0, v1, e.pc)
		return int(e.lat), true
	}
}

//repro:hotpath
func branchOutcome(in isa.Inst, flags prog.UOpFlags, pc, v0, v1 uint64) (bool, uint64) {
	switch {
	case flags&prog.UFCond != 0:
		if emu.CondTaken(in.Op, v0, v1) {
			return true, uint64(in.Imm)
		}
		return false, pc + isa.InstBytes
	case flags&prog.UFIndirect != 0:
		return true, v0
	default: // B, BL
		return true, uint64(in.Imm)
	}
}

// loadAccess performs disambiguation and the memory access for a load.
// Without memory speculation, the load conservatively waits until every
// older store address is known. With it (Alpha-21264-style), the load may
// issue past unresolved stores unless its PC's store-wait bit is set; a
// later ordering violation replays the load from commit.
//
//repro:hotpath
func (c *Core) loadAccess(e *robEntry, addr uint64) (lat int, val uint64, exc excCode, ok bool) {
	if addr%8 != 0 {
		return 2, 0, excMisalign, true
	}
	speculate := c.memWait != nil && !c.memWait[c.memWaitIdx(e.pc)]
	var fwd *sqEntry
	for j := c.sqCnt - 1; j >= 0; j-- {
		s := c.sqAt(j)
		if s.seq >= e.seq {
			continue
		}
		if !s.addrKnown {
			if !speculate {
				return 0, 0, excNone, false
			}
			continue // speculate past the unresolved store
		}
		if s.addr == addr && fwd == nil {
			fwd = s
		}
	}
	if c.pageAbsent(addr) {
		return 2, 0, excPageFault, true
	}
	if fwd != nil {
		// Store-to-load forwarding: AGU + one forwarding cycle.
		return 2, fwd.val, excNone, true
	}
	memLat, _ := c.hier.DataAccess(e.pc, addr, false, c.cycle)
	return 1 + int(memLat), c.mem.Read64(addr), excNone, true
}

//repro:hotpath
func (c *Core) memWaitIdx(pc uint64) int {
	return int((pc >> 2) % uint64(len(c.memWait)))
}

// checkOrderViolation fires when a store resolves its address: any younger
// load that already executed against the same address read stale data. The
// oldest such load is marked for replay at commit and its store-wait bit is
// set so future instances issue conservatively.
//
//repro:hotpath
func (c *Core) checkOrderViolation(storeSeq, addr uint64) {
	for j := 0; j < c.lqCnt; j++ {
		l := c.lqAt(j)
		if l.seq <= storeSeq || !l.done || l.addr != addr {
			continue
		}
		e := &c.rob[l.robIdx]
		if !e.active || e.seq != l.seq || e.exc != excNone {
			continue
		}
		e.exc = excReplay
		e.excAddr = addr
		c.memWait[c.memWaitIdx(e.pc)] = true
		c.stats.MemOrderViolations++
		return // oldest violator; everything younger replays with it
	}
}

// pageAbsent reports whether addr's page has not been touched yet under
// demand paging. Pages never leave pagePresent, so the last page found
// present answers most calls without the map.
//
//repro:hotpath
func (c *Core) pageAbsent(addr uint64) bool {
	if !c.cfg.DemandPaging {
		return false
	}
	pn := c.mem.PageNumber(addr)
	if pn == c.lastPresent {
		return false
	}
	if !c.pagePresent[pn] {
		return true
	}
	c.lastPresent = pn
	return false
}

// processEvents handles this cycle's writebacks: register-file writes,
// wakeup broadcasts into the IQ, completion marking, and branch resolution.
//
//repro:hotpath
func (c *Core) processEvents() {
	b := &c.evRing[c.cycle&uint64(len(c.evRing)-1)]
	evs := *b
	if len(evs) == 0 {
		return
	}
	for _, ev := range evs {
		e := &c.rob[ev.robIdx]
		if !e.active || e.seq != ev.seq {
			continue // squashed
		}
		if e.hasDest {
			c.rf(e.destClass).Write(e.dest.Tag.Reg, e.dest.Tag.Ver, e.resultVal)
			c.broadcast(e.destClass, e.dest.Tag, e.resultVal)
			if c.cfg.Scheme == EarlyRelease {
				c.early(e.destClass).NoteWriteback(e.dest.Tag)
			}
		}
		e.completed = true
		if c.o != nil {
			c.o.Inst(obs.InstEvent{
				Cycle: c.cycle, Seq: e.seq, PC: e.pc,
				Stage: obs.StageWriteback, Inst: c.instAt(e.idx), Micro: e.micro,
			})
		}
		if e.isBranch {
			c.resolveBranch(ev.robIdx)
		}
	}
	*b = evs[:0]
	c.evPending -= len(evs)
}

// broadcast wakes the source slots waiting on (class, tag), captures the
// value, and empties the list. The list holds them in dispatch order, so
// early-release consume notifications fire in the order a full IQ scan
// would produce; squashed entries left their lists when they were squashed.
//
//repro:hotpath
func (c *Core) broadcast(class isa.RegClass, tag rename.Tag, val uint64) {
	l := &c.wake[classIdx(class)][tagIdx(tag)]
	n := l.head
	l.head = noWaiter
	for n != noWaiter {
		ri := n >> 1
		e := &c.rob[ri]
		s := &e.src[n&1]
		s.ready = true
		s.val = val
		if c.cfg.Scheme == EarlyRelease {
			c.early(class).NoteSrcConsumed(tag)
		}
		e.pending--
		if e.pending == 0 {
			c.pushReady(ri)
		}
		n = c.wakeNext[n]
	}
}

// resolveBranch trains the predictor and squashes on a misprediction.
//
//repro:hotpath
func (c *Core) resolveBranch(robIdx int) {
	e := &c.rob[robIdx]
	c.bp.Resolve(e.pc, c.uops.Inst[e.idx], e.pred, e.actualTaken, e.actualTarget)

	predictedNext := e.pc + isa.InstBytes
	if e.pred.Taken && e.pred.Target != 0 {
		predictedNext = e.pred.Target
	}
	actualNext := e.pc + isa.InstBytes
	if e.actualTaken {
		actualNext = e.actualTarget
	}
	if predictedNext == actualNext {
		return
	}
	c.stats.Mispredicts++
	c.squashAfter(robIdx, actualNext)
}

// squashAfter removes every instruction younger than the ROB entry at
// branchIdx, restores the renaming checkpoints (issuing shadow-cell recover
// commands), repairs the branch predictor, and redirects fetch.
//
//repro:hotpath
func (c *Core) squashAfter(branchIdx int, resumePC uint64) {
	e := &c.rob[branchIdx]
	bseq := e.seq

	// Position of the branch within the ROB window (robIdxAt inverted).
	pos := branchIdx - c.robHead
	if pos < 0 {
		pos += len(c.rob)
	}
	if pos >= c.robCount {
		panic("pipeline: squash from entry outside ROB")
	}
	// Squashed entries still in the issue queue leave it in this walk's
	// ascending seq order, the order squashIQ's un-notes must keep. They
	// are the ready list's youngest entries, so that list loses a suffix.
	for i := pos + 1; i < c.robCount; i++ {
		ri := c.robIdxAt(i)
		dead := &c.rob[ri]
		if dead.isBranch {
			c.releaseCkpts(dead)
		}
		if dead.inIQ {
			c.squashIQ(dead, ri)
		}
		dead.active = false
		c.stats.SquashedInsts++
		if c.o != nil {
			c.o.Inst(obs.InstEvent{
				Cycle: c.cycle, Seq: dead.seq, PC: dead.pc,
				Stage: obs.StageSquash, Inst: c.instAt(dead.idx), Micro: dead.micro,
			})
		}
	}
	c.robCount = pos + 1
	rl := c.readyList
	for len(rl) > 0 && c.rob[rl[len(rl)-1]].seq > bseq {
		rl = rl[:len(rl)-1]
	}
	c.readyList = rl

	// Load, store and fetch queues.
	for c.lqCnt > 0 && c.lqAt(c.lqCnt-1).seq > bseq {
		c.lqCnt--
	}
	for c.sqCnt > 0 && c.sqAt(c.sqCnt-1).seq > bseq {
		c.sqCnt--
	}
	c.fqHead = 0
	c.fqCount = 0
	c.fetchHalted = false
	c.fetchLine = ^uint64(0)

	if c.cfg.Scheme == EarlyRelease {
		for c.specBrCount > 0 && c.specBrAt(c.specBrCount-1).seq > bseq {
			c.specBrCount--
		}
		c.earlyI.SquashTo(bseq)
		c.earlyF.SquashTo(bseq)
	}

	// Renamer checkpoints + shadow-cell recovery cost (§IV-C2).
	recoveries := c.renI.Restore(e.ckptI) + c.renF.Restore(e.ckptF)
	extra := uint64(0)
	if recoveries > 0 {
		extra = uint64((recoveries + c.cfg.RecoverWidth - 1) / c.cfg.RecoverWidth)
		c.stats.ShadowRecoveries += uint64(recoveries)
		c.stats.RecoveryCycles += extra
	}
	if c.o != nil {
		c.obsCore(obs.CoreCheckpointRestore, bseq, uint64(recoveries))
	}

	// Branch predictor state.
	flags := c.uops.Flags[e.idx]
	c.bp.Restore(e.pred.Snapshot, flags&prog.UFCond != 0, e.actualTaken)
	if flags&prog.UFLink != 0 {
		// The surviving call's RAS push must be replayed.
		c.bp.PushCallRestore(e.pc + isa.InstBytes)
	}

	c.fetchPC = resumePC
	c.fetchResumeAt = c.cycle + 1 + c.cfg.RedirectCycles + extra
}
