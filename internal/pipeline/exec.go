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
		idx := rl[r]
		ent := &c.iqPool[idx]
		if issued >= c.cfg.IssueWidth {
			rl[w] = idx
			w++
			continue
		}
		slot := c.freeFUSlot(ent.fu)
		if slot < 0 {
			rl[w] = idx
			w++
			continue
		}
		lat, ok := c.execute(ent)
		if !ok {
			// Load blocked by memory disambiguation; try again later.
			rl[w] = idx
			w++
			continue
		}
		if ent.unpipe {
			c.fuBusy[ent.fu][slot] = c.cycle + uint64(lat)
		} else {
			c.fuBusy[ent.fu][slot] = c.cycle + 1
		}
		c.schedule(c.cycle+uint64(lat), wbEvent{robIdx: ent.robIdx, seq: ent.seq})
		if c.o != nil {
			c.o.Inst(obs.InstEvent{
				Cycle: c.cycle, Seq: ent.seq, PC: ent.pc,
				Stage: obs.StageIssue, Inst: c.instAt(ent.idx), Micro: ent.micro,
			})
		}
		c.freeIQ(idx)
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
func (c *Core) execute(ent *iqEntry) (int, bool) {
	e := &c.rob[ent.robIdx]
	v0, v1 := ent.src[0].val, ent.src[1].val

	if ent.micro {
		e.resultVal = v0
		return ent.lat, true
	}
	// Non-micro entries index the micro-op table; the raw instruction is one
	// load here, everything structural was pre-decoded.
	in := c.uops.Inst[ent.idx]

	switch {
	case ent.isLoad:
		addr := v0 + uint64(in.Imm)
		lat, val, exc, ok := c.loadAccess(ent, addr)
		if !ok {
			return 0, false
		}
		e.effAddr = addr
		e.exc = exc
		e.excAddr = addr
		e.resultVal = val
		for j := 0; j < c.lqCnt; j++ {
			if l := c.lqAt(j); l.seq == ent.seq {
				l.done = true
				l.addr = addr
				break
			}
		}
		return lat, true

	case ent.isStore:
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
		for j := c.sqCnt - 1; j >= 0; j-- {
			if s := c.sqAt(j); s.seq == ent.seq {
				s.addrKnown = true
				s.addr = addr
				s.val = v1
				break
			}
		}
		if c.memWait != nil && e.exc == excNone {
			c.checkOrderViolation(ent.seq, addr)
		}
		return ent.lat, true

	case ent.isBranch:
		taken, target := branchOutcome(in, c.uops.Flags[ent.idx], ent.pc, v0, v1)
		e.actualTaken = taken
		e.actualTarget = target
		if taken {
			e.nextPC = target
		}
		if in.Op == isa.BL {
			e.resultVal = ent.pc + isa.InstBytes
		}
		return ent.lat, true

	default:
		e.resultVal = emu.ExecOps(in, v0, v1, ent.pc)
		return ent.lat, true
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
func (c *Core) loadAccess(ent *iqEntry, addr uint64) (lat int, val uint64, exc excCode, ok bool) {
	if addr%8 != 0 {
		return 2, 0, excMisalign, true
	}
	speculate := c.memWait != nil && !c.memWait[c.memWaitIdx(ent.pc)]
	var fwd *sqEntry
	for j := c.sqCnt - 1; j >= 0; j-- {
		s := c.sqAt(j)
		if s.seq >= ent.seq {
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
	memLat, _ := c.hier.DataAccess(ent.pc, addr, false, c.cycle)
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

//repro:hotpath
func (c *Core) pageAbsent(addr uint64) bool {
	if !c.cfg.DemandPaging {
		return false
	}
	return !c.pagePresent[c.mem.PageNumber(addr)]
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

// broadcast wakes the IQ source slots subscribed to (class, tag) and captures
// the value. Waiters are registered in dispatch order, so early-release
// consume notifications and value-read notes fire in the same order the old
// full-IQ scan produced. Stale waiters — entry issued, squashed, or slot
// reused — are detected by the generation check and skipped.
//
//repro:hotpath
func (c *Core) broadcast(class isa.RegClass, tag rename.Tag, val uint64) {
	lst := &c.waiters[classIdx(class)][tagIdx(tag)]
	ws := *lst
	if len(ws) == 0 {
		return
	}
	for _, w := range ws {
		ent := &c.iqPool[w.slot]
		if !ent.active || ent.gen != w.gen {
			continue
		}
		src := &ent.src[w.src]
		if !src.used || src.ready {
			continue
		}
		src.ready = true
		src.val = val
		if c.cfg.Scheme == EarlyRelease {
			c.early(class).NoteSrcConsumed(tag)
		}
		c.noteValueRead(class, tag.Reg)
		ent.pending--
		if ent.pending == 0 {
			c.pushReady(w.slot)
		}
	}
	*lst = ws[:0]
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
	for i := pos + 1; i < c.robCount; i++ {
		dead := &c.rob[c.robIdxAt(i)]
		if dead.isBranch {
			c.releaseCkpts(dead)
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

	// Issue queue, load queue, store queue, fetch queue. Squashed entries
	// with unconsumed source slots must be un-noted so the early-release
	// scheme's pending-reader counters stay exact — in ascending seq order,
	// because the notification order decides the early renamer's free-list
	// order.
	buf := c.squashBuf[:0]
	for i := range c.iqPool {
		if c.iqPool[i].active && c.iqPool[i].seq > bseq {
			buf = append(buf, int32(i))
		}
	}
	for i := 1; i < len(buf); i++ { // insertion sort by seq; the IQ is small
		for j := i; j > 0 && c.iqPool[buf[j-1]].seq > c.iqPool[buf[j]].seq; j-- {
			buf[j], buf[j-1] = buf[j-1], buf[j]
		}
	}
	for _, idx := range buf {
		ent := &c.iqPool[idx]
		if c.cfg.Scheme == EarlyRelease {
			for s := range ent.src {
				if ent.src[s].used && !ent.src[s].ready {
					c.early(ent.src[s].class).NoteSrcConsumed(ent.src[s].tag)
				}
			}
		}
		c.freeIQ(idx)
	}
	c.squashBuf = buf[:0]
	rl := c.readyList
	w := 0
	for _, idx := range rl {
		if c.iqPool[idx].active {
			rl[w] = idx
			w++
		}
	}
	c.readyList = rl[:w]
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
