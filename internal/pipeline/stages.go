package pipeline

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/memsys"
	"repro/internal/obs"
	"repro/internal/prog"
	"repro/internal/rename"
)

// fetch follows the predicted path through real program memory, so
// wrong-path instructions enter the pipeline and consume rename/issue/
// register resources exactly as they would in hardware. Decode happened at
// program load: fetch resolves the PC to a micro-op table index once and
// writes it — not the instruction — into the fetch queue, filling the ring
// slot in place so no fetchRec is ever copied.
//
//repro:hotpath
func (c *Core) fetch() {
	if c.cycle < c.fetchResumeAt || c.fetchHalted {
		return
	}
	u := c.uops
	for n := 0; n < c.cfg.FetchWidth; n++ {
		if c.fqCount >= c.cfg.FetchQSize {
			return
		}
		line := c.fetchPC / memsys.LineBytes
		if line != c.fetchLine {
			lat := c.hier.FetchLatency(c.fetchPC, c.cycle)
			c.fetchLine = line
			if lat > c.hier.L1I.HitLatency() {
				// Miss: block the front end until the line arrives.
				c.fetchResumeAt = c.cycle + lat
				c.stats.FetchStallIcache += lat
				return
			}
		}
		idx := prog.PCIndex(c.fetchPC)
		if idx >= uint64(len(u.Inst)) || c.fetchPC&(isa.InstBytes-1) != 0 {
			// Wrong path ran off the text section; wait for the squash.
			c.fetchHalted = true
			return
		}
		flags := u.Flags[idx]
		rec := c.fetchQAt(c.fqCount)
		rec.pc = c.fetchPC
		rec.fetched = c.cycle
		rec.idx = int32(idx)
		rec.branch = false
		next := c.fetchPC + isa.InstBytes
		if flags&prog.UFBranch != 0 {
			rec.branch = true
			rec.pred = c.bp.Predict(c.fetchPC, u.Inst[idx])
			if rec.pred.Taken && rec.pred.Target != 0 {
				next = rec.pred.Target
			}
		}
		c.fqCount++
		c.stats.FetchedInsts++
		c.fetchPC = next
		if u.Inst[idx].Op == isa.HALT {
			c.fetchHalted = true
			return
		}
	}
}

// renameDispatch renames and dispatches up to RenameWidth instructions from
// the fetch queue into the ROB, IQ and LSQ. A blocking condition stalls the
// whole stage for the cycle (in-order front end). One body serves every
// scheme: each renamer call switches on the scheme at the call site and
// calls the concrete renamer type, so the per-instruction calls stay direct
// and inlinable, and the scheme-only steps sit behind scheme guards — the
// reuse scheme's stolen-source repair (§IV-D1) and Read bits, and the
// early-release scheme's pending-source notes. The scheme-independent back
// half (ROB/IQ/LSQ fill) is dispatchFill.
//
//repro:hotpath
func (c *Core) renameDispatch() {
	u := c.uops
	scheme := c.cfg.Scheme
	for slot := 0; slot < c.cfg.RenameWidth && c.fqCount > 0; slot++ {
		rec := c.fetchQAt(0)
		if c.robCount == len(c.rob) {
			c.stats.StallROB++
			if c.o != nil {
				c.obsCore(obs.CoreStallROB, 0, 0)
			}
			return
		}
		idx := rec.idx
		flags := u.Flags[idx]

		if flags&prog.UFNopOrHalt != 0 {
			c.dispatchNopHalt(rec)
			continue
		}

		// Stolen source mappings must be repaired by a move micro-op
		// before the instruction can read them (§IV-D1).
		in := u.Inst[idx]
		if scheme == Reuse {
			if stolenLog, stolenClass, found := c.findStolenSrc(idx, in); found {
				if c.iqCount >= c.cfg.IQSize {
					c.stats.StallIQ++
					if c.o != nil {
						c.obsCore(obs.CoreStallIQ, 0, 0)
					}
					return
				}
				rep, ok := c.reuse(stolenClass).RepairSteal(stolenLog)
				if !ok {
					c.countNoRegStall(stolenClass)
					return
				}
				c.dispatchMicro(rec.pc, stolenClass, rep)
				continue // retry the same instruction in the next slot
			}
		}

		if c.dispatchStructStall(flags) {
			return
		}

		// Collect source tags (peek: no side effects yet).
		var srcs [2]iqSrc
		if flags&prog.UFSrc1Used != 0 {
			cl := u.Src1Class[idx]
			var tag rename.Tag
			switch scheme {
			case Reuse:
				tag = c.reuse(cl).PeekSrc(in.Rs1).Tag
			case EarlyRelease:
				tag = c.early(cl).PeekSrc(in.Rs1).Tag
			default:
				tag = c.base(cl).PeekSrc(in.Rs1).Tag
			}
			srcs[0] = iqSrc{used: true, class: cl, tag: tag}
		}
		if flags&prog.UFSrc2Used != 0 {
			cl := u.Src2Class[idx]
			var tag rename.Tag
			switch scheme {
			case Reuse:
				tag = c.reuse(cl).PeekSrc(in.Rs2).Tag
			case EarlyRelease:
				tag = c.early(cl).PeekSrc(in.Rs2).Tag
			default:
				tag = c.base(cl).PeekSrc(in.Rs2).Tag
			}
			srcs[1] = iqSrc{used: true, class: cl, tag: tag}
		}
		if scheme == EarlyRelease {
			// Register the pending source slots before the destination
			// rename can unmap one of them.
			c.earlyI.NoteRenamed(c.seqNext)
			c.earlyF.NoteRenamed(c.seqNext)
			for i := range srcs {
				if srcs[i].used {
					c.early(srcs[i].class).NoteSrcSlot(srcs[i].tag)
				}
			}
		}

		destClass := u.DestClass[idx]
		var destRes rename.DestResult
		if destClass != isa.NoReg {
			cand := u.Cand[idx][:u.NCand[idx]]
			var ok bool
			switch scheme {
			case Reuse:
				destRes, ok = c.reuse(destClass).RenameDest(rec.pc, u.DestLog[idx], cand)
			case EarlyRelease:
				destRes, ok = c.early(destClass).RenameDest(rec.pc, u.DestLog[idx], cand)
			default:
				destRes, ok = c.base(destClass).RenameDest(rec.pc, u.DestLog[idx], cand)
			}
			if !ok {
				if scheme == EarlyRelease {
					// Abandon the noted slots; the retry re-notes them.
					for i := range srcs {
						if srcs[i].used {
							c.early(srcs[i].class).NoteSrcConsumed(srcs[i].tag)
						}
					}
				}
				c.countNoRegStall(destClass)
				return
			}
		}
		if scheme == Reuse {
			// Set the Read bits. RenameDest has already marked same-class
			// sources of an instruction with a destination; without a
			// destination, a register read twice counts as one read.
			if srcs[0].used && srcs[0].class != destClass {
				c.reuse(srcs[0].class).MarkSrcRead(in.Rs1)
			}
			if srcs[1].used && srcs[1].class != destClass &&
				!(destClass == isa.NoReg && srcs[0].used && srcs[0].class == srcs[1].class && in.Rs1 == in.Rs2) {
				c.reuse(srcs[1].class).MarkSrcRead(in.Rs2)
			}
		}

		c.dispatchFill(rec, srcs, destClass, destRes, flags)
		c.fetchQPop()
	}
}

// dispatchNopHalt retires a NOP or HALT into the ROB: it occupies a slot and
// completes immediately, bypassing rename and the issue queue.
//
//repro:hotpath
func (c *Core) dispatchNopHalt(rec *fetchRec) {
	e := c.newROBEntry(rec.pc, rec.idx)
	e.completed = true
	e.halt = c.uops.Inst[rec.idx].Op == isa.HALT
	if c.o != nil {
		c.obsRenamed(rec, e.seq, rename.DestResult{}, isa.NoReg)
	}
	c.fetchQPop()
}

// dispatchStructStall checks the issue-queue and load/store-queue capacity
// for the instruction described by flags, counting the stall when a
// structure is full. It must run before any renaming side effects.
//
//repro:hotpath
func (c *Core) dispatchStructStall(flags prog.UOpFlags) bool {
	if c.iqCount >= c.cfg.IQSize {
		c.stats.StallIQ++
		if c.o != nil {
			c.obsCore(obs.CoreStallIQ, 0, 0)
		}
		return true
	}
	if flags&prog.UFLoad != 0 && c.lqCnt >= c.cfg.LQSize {
		c.stats.StallLSQ++
		if c.o != nil {
			c.obsCore(obs.CoreStallLSQ, 0, 0)
		}
		return true
	}
	if flags&prog.UFStore != 0 && c.sqCnt >= c.cfg.SQSize {
		c.stats.StallLSQ++
		if c.o != nil {
			c.obsCore(obs.CoreStallLSQ, 0, 0)
		}
		return true
	}
	return false
}

// dispatchFill is the scheme-independent back half of dispatch: it fills the
// ROB entry, enters it in the issue queue with captured-ready operands
// (not-ready sources join their producer's wakeup list), and appends to the
// load/store queues. The caller pops the fetch queue.
//
//repro:hotpath
func (c *Core) dispatchFill(rec *fetchRec, srcs [2]iqSrc, destClass isa.RegClass, destRes rename.DestResult, flags prog.UOpFlags) {
	u := c.uops
	idx := rec.idx
	e := c.newROBEntry(rec.pc, idx)
	ri := c.lastROBIdx()
	if c.o != nil {
		c.obsRenamed(rec, e.seq, destRes, destClass)
	}
	if destClass != isa.NoReg {
		e.hasDest = true
		e.destClass = destClass
		e.dest = destRes
	}
	isLoad := flags&prog.UFLoad != 0
	isStore := flags&prog.UFStore != 0
	e.isLoad = isLoad
	e.isStore = isStore
	if rec.branch {
		e.isBranch = true
		e.pred = rec.pred
		// Checkpoint *after* renaming the branch itself: the branch
		// survives its own misprediction.
		e.ckptI = c.renI.Checkpoint()
		e.ckptF = c.renF.Checkpoint()
		if c.cfg.Scheme == EarlyRelease {
			*c.specBrAt(c.specBrCount) = specBranch{robIdx: ri, seq: e.seq}
			c.specBrCount++
		}
		c.stats.Branches++
		if c.o != nil {
			c.obsCore(obs.CoreCheckpointCreate, e.seq, 0)
		}
	}

	e.fu = u.FU[idx]
	e.lat = u.Lat[idx]
	e.unpipe = flags&prog.UFUnpipelined != 0
	e.src = srcs
	c.enterIQ(e, ri, false)
	if isLoad {
		e.lsq = c.lqPush(lqEntry{seq: e.seq, robIdx: ri})
	}
	if isStore {
		e.lsq = c.sqPush(sqEntry{seq: e.seq})
	}
}

// findStolenSrc returns the first source whose mapping was stolen (reuse
// scheme only).
//
//repro:hotpath
func (c *Core) findStolenSrc(idx int32, in isa.Inst) (uint8, isa.RegClass, bool) {
	u := c.uops
	if cl := u.Src1Class[idx]; cl != isa.NoReg {
		if c.reuse(cl).PeekSrc(in.Rs1).Stolen {
			return in.Rs1, cl, true
		}
	}
	if cl := u.Src2Class[idx]; cl != isa.NoReg {
		if c.reuse(cl).PeekSrc(in.Rs2).Stolen {
			return in.Rs2, cl, true
		}
	}
	return 0, isa.NoReg, false
}

// obsRenamed emits the fetch and rename lifecycle events for an instruction
// that just passed the rename stage. Callers must have checked c.o != nil.
//
//repro:obsemit
func (c *Core) obsRenamed(rec *fetchRec, seq uint64, res rename.DestResult, destClass isa.RegClass) {
	in := c.instAt(rec.idx)
	c.o.Inst(obs.InstEvent{Cycle: rec.fetched, Seq: seq, PC: rec.pc, Stage: obs.StageFetch, Inst: in})
	kind := obs.RenameNone
	if destClass != isa.NoReg {
		switch {
		case res.ReusedSameLog:
			kind = obs.RenameReuseRedef
		case res.Reused:
			kind = obs.RenameReuseSpec
		default:
			kind = obs.RenameAlloc
		}
	}
	c.o.Inst(obs.InstEvent{
		Cycle: c.cycle, Seq: seq, PC: rec.pc, Stage: obs.StageRename,
		Inst: in, Kind: kind, Reason: res.Reason, Dest: res.Tag,
	})
}

// dispatchMicro injects a repair move micro-op (§IV-D1) into ROB and IQ.
//
//repro:hotpath
func (c *Core) dispatchMicro(pc uint64, class isa.RegClass, rep rename.Repair) {
	e := c.newROBEntry(pc, -1)
	e.micro = true
	e.microShadow = rep.Checkpointed
	e.hasDest = true
	e.destClass = class
	e.dest = rep.Dest

	e.fu = isa.FUIntALU
	e.lat = 1
	if rep.Checkpointed {
		// The value sits in a shadow cell: the three-step recover-and-move
		// sequence of Figure 8.
		e.lat = 3
	}
	e.unpipe = false
	e.src[0] = iqSrc{used: true, class: class, tag: rep.From}
	e.src[1] = iqSrc{}
	c.enterIQ(e, c.lastROBIdx(), true)
	if c.o != nil {
		c.o.Inst(obs.InstEvent{
			Cycle: c.cycle, Seq: e.seq, PC: pc, Stage: obs.StageRename,
			Inst: isa.Inst{Op: isa.NOP}, Kind: obs.RenameRepair, Dest: rep.Dest.Tag, Micro: true,
		})
	}
}

// captureIfReady implements dispatch-time data capture: if the operand's
// value has been produced, read it from the register file now.
//
//repro:hotpath
func (c *Core) captureIfReady(s *iqSrc, micro bool) {
	rf := c.rf(s.class)
	if !rf.Produced(s.tag.Reg, s.tag.Ver) {
		return
	}
	early := c.cfg.Scheme == EarlyRelease
	if !micro && !early && rf.MainVer(s.tag.Reg) > s.tag.Ver {
		// Only repair micro-ops may read superseded versions (they come
		// from shadow cells, which have no ports). Under the early-release
		// scheme this cannot happen either: a register is only reallocated
		// after every consumer of the old version has captured it.
		panic("pipeline: non-micro consumer of a superseded register version")
	}
	s.ready = true
	s.val = rf.Read(s.tag.Reg, s.tag.Ver)
	if early {
		c.early(s.class).NoteSrcConsumed(s.tag)
	}
}

// newROBEntry appends an entry at the ROB tail and returns it. Fields are
// reset individually rather than by struct assignment so the embedded branch
// prediction record — by far the largest field, and only meaningful when
// isBranch is set — is not cleared for the (majority) non-branch entries.
//
//repro:hotpath
func (c *Core) newROBEntry(pc uint64, idx int32) *robEntry {
	i := c.robTailIdx()
	c.robCount++
	e := &c.rob[i]
	e.active = true
	e.seq = c.seqNext
	e.pc = pc
	e.nextPC = pc + isa.InstBytes
	e.idx = idx
	e.micro = false
	e.microShadow = false
	e.inIQ = false
	e.hasDest = false
	e.destClass = 0
	e.dest = rename.DestResult{}
	e.resultVal = 0
	e.completed = false
	e.exc = excNone
	e.excAddr = 0
	e.isLoad = false
	e.isStore = false
	e.effAddr = 0
	e.isBranch = false
	e.ckptI = nil
	e.ckptF = nil
	e.actualTaken = false
	e.actualTarget = 0
	e.halt = false
	c.seqNext++
	return e
}

// lastROBIdx returns the index of the most recently appended ROB entry.
//
//repro:hotpath
func (c *Core) lastROBIdx() int { return c.robIdxAt(c.robCount - 1) }

//repro:hotpath
func (c *Core) countNoRegStall(class isa.RegClass) {
	if class == isa.FPReg {
		c.stats.StallNoRegFP++
		if c.o != nil {
			c.obsCore(obs.CoreStallNoRegFP, 0, 0)
		}
	} else {
		c.stats.StallNoRegInt++
		if c.o != nil {
			c.obsCore(obs.CoreStallNoRegInt, 0, 0)
		}
	}
}

// assertInFlightProducer panics if a not-ready source operand has no active
// in-flight producer in the ROB — such an instruction would wait forever.
func (c *Core) assertInFlightProducer(s iqSrc, pc uint64, idx int32, seq uint64) {
	for i := 0; i < c.robCount; i++ {
		e := &c.rob[c.robIdxAt(i)]
		if e.active && e.hasDest && !e.completed && e.destClass == s.class && e.dest.Tag == s.tag {
			return
		}
	}
	panic(fmt.Sprintf("pipeline: cycle %d seq %d pc=%#x %v waits on %v tag %+v with no in-flight producer",
		c.cycle, seq, pc, c.instAt(idx), s.class, s.tag))
}
