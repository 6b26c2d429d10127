package pipeline

import (
	"fmt"
	"math"

	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/regfile"
	"repro/internal/rename"
)

// commit retires up to CommitWidth completed instructions from the ROB head,
// taking precise exceptions and timer interrupts at instruction boundaries.
//
//repro:hotpath
func (c *Core) commit() {
	// Timer interrupt: taken at a commit boundary before any instruction
	// of this cycle retires.
	if c.cfg.InterruptEvery > 0 && c.cycle >= c.nextInterrupt {
		c.takeInterrupt()
		return
	}
	for n := 0; n < c.cfg.CommitWidth && c.robCount > 0; n++ {
		idx := c.robHead
		e := &c.rob[idx]
		if !e.completed {
			return
		}
		if e.exc != excNone {
			c.takeException(e)
			return
		}
		if e.isStore {
			c.commitStore(e)
		}
		if e.isLoad {
			if c.lqCnt == 0 || c.lqAt(0).seq != e.seq {
				panic("pipeline: load commit out of order with load queue")
			}
			c.lqPopFront()
		}
		if e.hasDest {
			c.commitDest(e.destClass, e.dest)
		}
		if c.oracle != nil && !e.micro {
			if err := c.checkOracle(e); err != nil {
				c.oracleErr = err
				return
			}
		}
		if e.micro {
			c.stats.MicroOps++
		} else {
			c.stats.Committed++
		}
		if c.o != nil {
			kind := obs.RenameNone
			switch {
			case e.micro:
				kind = obs.RenameRepair
			case e.hasDest && e.dest.ReusedSameLog:
				kind = obs.RenameReuseRedef
			case e.hasDest && e.dest.Reused:
				kind = obs.RenameReuseSpec
			case e.hasDest:
				kind = obs.RenameAlloc
			}
			c.o.Inst(obs.InstEvent{
				Cycle: c.cycle, Seq: e.seq, PC: e.pc, Stage: obs.StageCommit,
				Inst: c.instAt(e.idx), Kind: kind, Reason: e.dest.Reason, Dest: e.dest.Tag,
				Micro: e.micro, Branch: e.isBranch, Taken: e.actualTaken,
			})
		}
		c.nextCommitPC = e.nextPC
		if e.isBranch {
			c.releaseCkpts(e)
		}
		e.active = false
		c.robHead++
		if c.robHead == len(c.rob) {
			c.robHead = 0
		}
		c.robCount--
		if e.halt {
			c.halted = true
			return
		}
	}
}

// commitDest retires a destination rename through the concrete renamer for
// the running scheme, so the per-commit call is direct rather than an
// interface dispatch. The scheme switch resolves the same way every call
// within a run — a predicted branch, not a dynamic method lookup.
//
//repro:hotpath
func (c *Core) commitDest(class isa.RegClass, d rename.DestResult) {
	switch c.cfg.Scheme {
	case Reuse:
		c.reuse(class).Commit(d)
	case EarlyRelease:
		c.early(class).Commit(d)
	default:
		c.base(class).Commit(d)
	}
}

// commitStore retires a store: the committed memory state is updated and
// the D-cache sees the access (timing-wise the store drains through a write
// buffer, so commit does not stall on it).
//
//repro:hotpath
func (c *Core) commitStore(e *robEntry) {
	c.mem.Write64(e.effAddr, e.resultVal)
	c.hier.DataAccess(e.pc, e.effAddr, true, c.cycle)
	// Retire the SQ entry (always the oldest).
	if c.sqCnt == 0 || c.sqAt(0).seq != e.seq {
		panic("pipeline: store commit out of order with store queue")
	}
	c.sqPopFront()
}

// takeException implements precise exceptions (§IV-B): the pipeline is
// flushed, logical registers recover their architectural values from the
// shadow cells, the handler cost is charged, and fetch resumes at the
// faulting instruction (demand paging: the page is now present).
func (c *Core) takeException(e *robEntry) {
	switch e.exc {
	case excPageFault:
		c.stats.PageFaults++
		c.pagePresent[c.mem.PageNumber(e.excAddr)] = true
		c.flushAll(e.pc, c.cfg.PageFaultCycles)
	case excReplay:
		// Memory-order violation: flush and re-execute from the load; the
		// store it raced with has committed by now, so the replayed load
		// reads the correct value (and its wait bit keeps it conservative).
		c.stats.MemReplays++
		if c.o != nil {
			c.obsCore(obs.CoreMemReplay, e.seq, e.excAddr)
		}
		c.flushAll(e.pc, 0)
	case excMisalign:
		// Correct-path misaligned accesses do not occur in the workloads;
		// reaching commit with one is a simulator or program bug.
		panic(fmt.Sprintf("pipeline: misaligned access committed at pc=%#x addr=%#x", e.pc, e.excAddr))
	}
}

// takeInterrupt models a timer interrupt: full flush, architectural
// recovery, handler cost, resume at the next uncommitted instruction.
func (c *Core) takeInterrupt() {
	c.stats.Interrupts++
	c.nextInterrupt = c.cycle + c.cfg.InterruptEvery
	resume := c.nextCommitPC
	if c.robCount > 0 {
		resume = c.rob[c.robHead].pc
	}
	c.flushAll(resume, c.cfg.InterruptCycles)
}

// flushAll squashes the entire pipeline, restores architectural rename
// state (recovering shadow-cell versions), and restarts fetch at resumePC
// after the handler cost plus recovery cycles.
func (c *Core) flushAll(resumePC uint64, handlerCycles uint64) {
	for i := 0; i < c.robCount; i++ {
		e := &c.rob[c.robIdxAt(i)]
		if e.isBranch {
			c.releaseCkpts(e)
		}
		e.active = false
		c.stats.SquashedInsts++
		if c.o != nil {
			c.o.Inst(obs.InstEvent{
				Cycle: c.cycle, Seq: e.seq, PC: e.pc,
				Stage: obs.StageSquash, Inst: c.instAt(e.idx), Micro: e.micro,
			})
		}
	}
	c.robCount = 0
	c.specBrHead, c.specBrCount = 0, 0
	c.resetIQ() // newROBEntry clears the dead entries' inIQ
	c.lqHead, c.lqCnt = 0, 0
	c.sqHead, c.sqCnt = 0, 0
	c.fqHead, c.fqCount = 0, 0
	c.fetchHalted = false
	c.fetchLine = ^uint64(0)
	c.clearEvents()

	recoveries := c.renI.RestoreArch() + c.renF.RestoreArch()
	extra := uint64(0)
	if recoveries > 0 {
		extra = uint64((recoveries + c.cfg.RecoverWidth - 1) / c.cfg.RecoverWidth)
		c.stats.ShadowRecoveries += uint64(recoveries)
		c.stats.RecoveryCycles += extra
	}
	if c.o != nil {
		c.obsCore(obs.CoreFlush, 0, uint64(recoveries))
	}
	c.fetchPC = resumePC
	c.fetchResumeAt = c.cycle + 1 + handlerCycles + extra
}

// releaseCkpts recycles a retired or squashed branch's renamer snapshots.
//
//repro:hotpath
func (c *Core) releaseCkpts(e *robEntry) {
	if e.ckptI != nil {
		c.renI.ReleaseCheckpoint(e.ckptI)
		e.ckptI = nil
	}
	if e.ckptF != nil {
		c.renF.ReleaseCheckpoint(e.ckptF)
		e.ckptF = nil
	}
}

// checkOracle steps the lockstep emulator and compares the committed
// instruction against it: PC, destination value, and store effects.
func (c *Core) checkOracle(e *robEntry) error {
	if e.pc != c.oracle.PC {
		return fmt.Errorf("pipeline: oracle divergence at seq %d: committed pc=%#x, oracle pc=%#x", e.seq, e.pc, c.oracle.PC)
	}
	cm, err := c.oracle.Step()
	if err != nil {
		return fmt.Errorf("pipeline: oracle crashed: %w", err)
	}
	if cm.NextPC != e.nextPC {
		return fmt.Errorf("pipeline: oracle divergence at pc=%#x: nextPC=%#x, oracle=%#x", e.pc, e.nextPC, cm.NextPC)
	}
	if e.hasDest {
		var want uint64
		if e.destClass == isa.IntReg {
			want = c.oracle.X[e.dest.Log]
		} else {
			want = math.Float64bits(c.oracle.F[e.dest.Log])
		}
		if e.resultVal != want {
			return fmt.Errorf("pipeline: oracle divergence at seq %d pc=%#x (%v): dest P%d.%d=%#x, oracle=%#x",
				e.seq, e.pc, c.instAt(e.idx), e.dest.Tag.Reg, e.dest.Tag.Ver, e.resultVal, want)
		}
	}
	if e.isStore {
		if cm.EffAddr != e.effAddr {
			return fmt.Errorf("pipeline: oracle divergence at pc=%#x: store addr=%#x, oracle=%#x", e.pc, e.effAddr, cm.EffAddr)
		}
		if got, want := c.mem.Read64(e.effAddr), c.oracle.Mem.Read64(e.effAddr); got != want {
			return fmt.Errorf("pipeline: oracle divergence at pc=%#x: stored %#x, oracle %#x", e.pc, got, want)
		}
	}
	if e.isLoad && cm.EffAddr != e.effAddr {
		return fmt.Errorf("pipeline: oracle divergence at pc=%#x: load addr=%#x, oracle=%#x", e.pc, e.effAddr, cm.EffAddr)
	}
	return nil
}

// ArchRegs returns the committed architectural register state (for final-
// state checks in tests), reading through the retirement map.
func (c *Core) ArchRegs() (x [isa.NumIntRegs]uint64, f [isa.NumFPRegs]float64) {
	for l := 0; l < isa.NumIntRegs-1; l++ {
		t := c.renI.RetireTag(uint8(l))
		x[l] = c.rfInt.Read(t.Reg, readVerFor(c, isa.IntReg, t.Reg, t.Ver))
	}
	for l := 0; l < isa.NumFPRegs; l++ {
		t := c.renF.RetireTag(uint8(l))
		f[l] = math.Float64frombits(c.rfFP.Read(t.Reg, readVerFor(c, isa.FPReg, t.Reg, t.Ver)))
	}
	return x, f
}

// readVerFor clamps a retirement-map version to what the register file can
// serve: if speculative newer versions are still in flight the architectural
// version lives in a shadow cell, which Read handles; if the speculative
// producer has not executed yet the main cell still holds the architectural
// version.
//
//repro:hotpath
func readVerFor(c *Core, class isa.RegClass, reg regfile.PhysReg, ver regfile.Ver) regfile.Ver {
	rf := c.rf(class)
	if rf.MainVer(reg) < ver {
		return rf.MainVer(reg)
	}
	return ver
}
