package rename

import (
	"fmt"

	"repro/internal/regfile"
)

// EarlyRenamer implements a checkpointed early register release scheme in
// the spirit of the paper's §VII related work (Monreal et al.'s
// non-speculative-redefiner rule combined with Ergin et al.'s shadow-cell
// recovery): a physical register is released — before the redefining
// instruction commits — once
//
//	(a) its logical register has been redefined by a renamed instruction,
//	(b) every renamed consumer has captured the value,
//	(c) the value has been produced,
//	(d) the redefiner is no longer branch-speculative, and
//	(e) a shadow cell is free to preserve the value for precise exceptions.
//
// Reallocating a released register bumps its version, pushing the old value
// into a shadow cell from which interrupt/exception recovery can restore it.
//
// Contrast with the paper's scheme: reuse frees the register at the last
// consumer's *rename*; early release waits for the last consumer's
// *execution* and the redefiner's non-speculation. That gap is the paper's
// claimed advantage over this class of prior work.
type EarlyRenamer struct {
	numLog     int
	mapTable   []Tag
	retireMap  []Tag
	retireRefs []uint8
	rf         *regfile.File

	// Speculative per-register state. Restore rewinds ctr and unmapped
	// from the ring slots and sequence numbers (see Checkpoint); pending
	// and the armed set are kept exact by explicit squash notifications
	// instead (a snapshot would resurrect counts consumed by surviving
	// instructions during the wrong-path window).
	ctr      []Ver    // current version
	pending  []int32  // renamed-but-unconsumed source slots
	unmapped []bool   // current version's logical register was redefined
	unmapSeq []uint64 // sequence number of the redefining instruction
	armed    []bool   // conditions (a)-(c)+(e) met, awaiting (d)

	// armedList holds candidates waiting for their redefiner to become
	// non-speculative; unmapOp is the redefiner's sequence number.
	armedList []armedRelease

	// suppress counts, per register, early releases whose redefiner has
	// not committed yet: that commit must skip its free-list push. Both
	// mutation sites (non-speculative release, in-order commit) are
	// squash-immune, so no checkpointing is needed.
	suppress []uint8

	// committedVer/committedSet track, per register, the newest version
	// whose producer has committed. Ergin's rule releases only after the
	// producing instruction commits. Every allocation clears the flag so a
	// previous lifetime's commit can never vouch for the current
	// lifetime's (possibly uncommitted) producer; a squash that rolls an
	// allocation back leaves the flag conservatively false, which only
	// delays a release to the commit fallback.
	committedVer []Ver
	committedSet []bool

	// inRing marks registers currently sitting in a free list. It guards
	// tryArm against re-releasing an already-free register (stale consume
	// notifications can otherwise re-arm a released register, and Restore
	// leaves a free register's unmapped flag stale). Restore sets it for
	// every register its rewind returns to a ring, so it is always
	// squash-consistent.
	inRing []bool

	curSeq uint64

	freeLists [regfile.MaxShadow + 1]*freeRing
	// popVer[k][slot] is the version the register alloc popped from slot
	// (head & mask) of ring k held before the pop; Restore reads it back
	// for the slots its rewind re-exposes.
	popVer [regfile.MaxShadow + 1][]Ver

	ckptPool []*earlyCkpt

	// archLive is RestoreArch's scratch liveness map.
	archLive []bool

	stats Stats
	// EarlyReleases counts successful early releases.
	EarlyReleases uint64
}

type armedRelease struct {
	reg     PhysReg
	unmapOp uint64
}

// earlyCkpt is a branch checkpoint: the map table, the branch's sequence
// number and the free-ring heads. Everything else Restore needs is in the
// ring slots popped since (see Restore).
type earlyCkpt struct {
	mapTable  []Tag
	seq       uint64
	freeMarks [regfile.MaxShadow + 1]uint64
}

var _ Renamer = (*EarlyRenamer)(nil)

// NewEarly creates an early-release renamer for numLog logical registers
// over the banked file rf (registers in shadow banks are the early-release
// candidates; bank-0 registers fall back to release-at-commit).
func NewEarly(numLog int, rf *regfile.File) *EarlyRenamer {
	if rf.Size() <= numLog {
		panic(fmt.Sprintf("rename: register file of %d cannot back %d logical registers", rf.Size(), numLog))
	}
	e := &EarlyRenamer{
		numLog:       numLog,
		mapTable:     make([]Tag, numLog),
		retireMap:    make([]Tag, numLog),
		retireRefs:   make([]uint8, rf.Size()),
		rf:           rf,
		ctr:          make([]Ver, rf.Size()),
		pending:      make([]int32, rf.Size()),
		unmapped:     make([]bool, rf.Size()),
		unmapSeq:     make([]uint64, rf.Size()),
		armed:        make([]bool, rf.Size()),
		suppress:     make([]uint8, rf.Size()),
		inRing:       make([]bool, rf.Size()),
		committedVer: make([]Ver, rf.Size()),
		committedSet: make([]bool, rf.Size()),
		archLive:     make([]bool, rf.Size()),
	}
	for k := range e.freeLists {
		e.freeLists[k] = newFreeRing(rf.Size())
		e.popVer[k] = make([]Ver, len(e.freeLists[k].buf))
	}
	for l := 0; l < numLog; l++ {
		t := Tag{Reg: PhysReg(l)}
		e.mapTable[l] = t
		e.retireMap[l] = t
		e.retireRefs[l] = 1
		e.committedSet[l] = true
		rf.Write(PhysReg(l), 0, 0)
	}
	for p := numLog; p < rf.Size(); p++ {
		e.freeLists[rf.ShadowCells(PhysReg(p))].push(PhysReg(p))
		e.inRing[p] = true
	}
	return e
}

// PeekSrc implements Renamer.
//
//repro:hotpath
func (e *EarlyRenamer) PeekSrc(log uint8) SrcInfo { return SrcInfo{Tag: e.mapTable[log]} }

// MarkSrcRead implements Renamer; consumption is tracked per issue-queue
// slot through NoteSrcSlot/NoteSrcConsumed instead.
//
//repro:hotpath
func (e *EarlyRenamer) MarkSrcRead(log uint8) Tag { return e.mapTable[log] }

// RenameDest implements Renamer: allocate and unmap the previous mapping,
// possibly arming an early release of its register.
//
//repro:hotpath
func (e *EarlyRenamer) RenameDest(pc uint64, destLog uint8, srcLogs []uint8) (DestResult, bool) {
	p, ver, ok := e.alloc()
	if !ok {
		return DestResult{}, false
	}
	prev := e.mapTable[destLog]
	e.mapTable[destLog] = Tag{Reg: p, Ver: ver}
	e.stats.Allocations++
	e.stats.AllocsPerBank[e.rf.ShadowCells(p)]++
	e.unmapped[prev.Reg] = true
	e.unmapSeq[prev.Reg] = e.curSeq
	e.tryArm(prev.Reg)
	return DestResult{Log: destLog, Tag: Tag{Reg: p, Ver: ver}, Allocated: true}, true
}

// alloc pops from the fullest bank. A register that is still architecturally
// referenced (early-released, redefiner not yet committed) keeps its live
// value: the new version's write pushes it into a shadow cell for precise-
// exception recovery. Architecturally dead registers start a fresh lifetime.
//
//repro:hotpath
func (e *EarlyRenamer) alloc() (PhysReg, Ver, bool) {
	best := -1
	for k := range e.freeLists {
		if e.freeLists[k].len() > 0 && (best < 0 || e.freeLists[k].len() > e.freeLists[best].len()) {
			best = k
		}
	}
	if best < 0 {
		return 0, 0, false
	}
	fl := e.freeLists[best]
	slot := fl.head & fl.mask
	p, _ := fl.pop()
	e.popVer[best][slot] = e.ctr[p]
	e.inRing[p] = false
	e.pending[p] = 0
	e.unmapped[p] = false
	e.committedSet[p] = false
	if e.retireRefs[p] > 0 {
		v := e.ctr[p] + 1
		e.ctr[p] = v
		return p, v, true
	}
	e.ctr[p] = 0
	e.rf.ResetOnAlloc(p)
	return p, 0, true
}

// tryArm arms an early release when conditions (a)-(c)+(e) hold; the
// release itself fires when the redefiner passes the speculation boundary.
//
//repro:hotpath
func (e *EarlyRenamer) tryArm(p PhysReg) {
	if !e.unmapped[p] || e.pending[p] != 0 || e.armed[p] || e.inRing[p] {
		return
	}
	if e.ctr[p] >= e.rf.ShadowCells(p) || e.ctr[p] >= regfile.MaxShadow {
		return // no shadow cell free: fall back to release-at-commit
	}
	if !e.rf.Produced(p, e.ctr[p]) {
		return
	}
	if !e.committedSet[p] || e.committedVer[p] != e.ctr[p] {
		return // Ergin's rule: the producing instruction must have committed
	}
	e.armed[p] = true
	e.armedList = append(e.armedList, armedRelease{reg: p, unmapOp: e.unmapSeq[p]})
}

// NoteRenamed is called once per instruction entering rename, with the
// sequence number it will carry.
//
//repro:hotpath
func (e *EarlyRenamer) NoteRenamed(seq uint64) { e.curSeq = seq }

// NoteSrcSlot records that a renamed instruction holds tag as a source
// operand awaiting its value (one call per issue-queue slot).
//
//repro:hotpath
func (e *EarlyRenamer) NoteSrcSlot(tag Tag) { e.pending[tag.Reg]++ }

// NoteSrcConsumed records that the slot captured its value (or was
// abandoned by a rename stall or squash and will not capture).
//
//repro:hotpath
func (e *EarlyRenamer) NoteSrcConsumed(tag Tag) {
	if e.pending[tag.Reg] > 0 {
		e.pending[tag.Reg]--
	}
	e.tryArm(tag.Reg)
}

// NoteWriteback records that tag's value was produced.
//
//repro:hotpath
func (e *EarlyRenamer) NoteWriteback(tag Tag) { e.tryArm(tag.Reg) }

// NoteSpecBoundary reports that no instruction with seq < boundary can be
// squashed by a branch misprediction anymore: armed releases whose
// redefiner is older than the boundary fire now. Their free-list pushes are
// non-speculative — a branch squash can no longer revoke them — which is
// what keeps the checkpointable free-ring invariants intact.
//
//repro:hotpath
func (e *EarlyRenamer) NoteSpecBoundary(boundary uint64) {
	kept := e.armedList[:0]
	for _, a := range e.armedList {
		if a.unmapOp >= boundary {
			kept = append(kept, a)
			continue
		}
		e.armed[a.reg] = false
		// Re-validate the release at fire time: between arming and the
		// boundary passing, a squash can have restored the mapping, a
		// commit can have released the register through the normal path,
		// or a new lifetime can have started — any of which makes this
		// entry stale. Conditions that merely became *temporarily* false
		// (pending readers re-noted after a squash) re-arm through the
		// usual notification events.
		if !e.unmapped[a.reg] || e.unmapSeq[a.reg] != a.unmapOp ||
			e.pending[a.reg] != 0 || e.inRing[a.reg] ||
			e.ctr[a.reg] >= e.rf.ShadowCells(a.reg) || e.ctr[a.reg] >= regfile.MaxShadow ||
			!e.rf.Produced(a.reg, e.ctr[a.reg]) ||
			!e.committedSet[a.reg] || e.committedVer[a.reg] != e.ctr[a.reg] {
			continue
		}
		e.freeLists[e.rf.ShadowCells(a.reg)].push(a.reg)
		e.inRing[a.reg] = true
		e.suppress[a.reg]++
		e.EarlyReleases++
	}
	e.armedList = kept
}

// SquashTo discards speculative release bookkeeping for instructions with
// seq > bseq: it drops armed candidates whose redefiner was squashed (their
// registers return to mapped state through the checkpoint restore).
func (e *EarlyRenamer) SquashTo(bseq uint64) {
	kept := e.armedList[:0]
	for _, a := range e.armedList {
		if a.unmapOp <= bseq {
			kept = append(kept, a)
			continue
		}
		e.armed[a.reg] = false
	}
	e.armedList = kept
}

// RepairSteal implements Renamer; this scheme never steals mappings.
func (e *EarlyRenamer) RepairSteal(log uint8) (Repair, bool) {
	panic("rename: early-release scheme has no stolen mappings")
}

// Commit implements Renamer: retire the mapping; the displaced register is
// pushed to its free list unless an early release already covered it.
//
//repro:hotpath
func (e *EarlyRenamer) Commit(r DestResult) {
	e.committedVer[r.Tag.Reg] = r.Tag.Ver
	e.committedSet[r.Tag.Reg] = true
	e.tryArm(r.Tag.Reg)
	e.retireRefs[r.Tag.Reg]++
	old := e.retireMap[r.Log]
	e.retireMap[r.Log] = r.Tag
	e.retireRefs[old.Reg]--
	if e.retireRefs[old.Reg] == 0 {
		if e.suppress[old.Reg] > 0 {
			e.suppress[old.Reg]--
		} else {
			e.freeLists[e.rf.ShadowCells(old.Reg)].push(old.Reg)
			e.inRing[old.Reg] = true
			e.stats.Releases++
		}
	}
}

// Checkpoint implements Renamer, recycling released snapshots. It keeps
// the map table, the branch's sequence number (the last NoteRenamed) and
// the free-ring heads: ring slots [mark, head) are exactly the registers
// allocated since, and popVer holds the version each held before.
func (e *EarlyRenamer) Checkpoint() Checkpoint {
	var c *earlyCkpt
	if n := len(e.ckptPool); n > 0 {
		c = e.ckptPool[n-1]
		e.ckptPool = e.ckptPool[:n-1]
		copy(c.mapTable, e.mapTable)
	} else {
		c = &earlyCkpt{mapTable: append([]Tag(nil), e.mapTable...)}
	}
	c.seq = e.curSeq
	for k := range e.freeLists {
		c.freeMarks[k] = e.freeLists[k].mark()
	}
	return c
}

// ReleaseCheckpoint implements Renamer.
func (e *EarlyRenamer) ReleaseCheckpoint(c Checkpoint) {
	if ck, ok := c.(*earlyCkpt); ok && len(e.ckptPool) < 256 {
		e.ckptPool = append(e.ckptPool, ck)
	}
}

// Restore implements Renamer. Only alloc changes ctr, and a register is
// popped at most once between a checkpoint and its restore (it cannot be
// freed again before its allocator, younger than the branch, commits), so
// resetting the popped slots' registers to their popVer versions — and
// rolling back only those — rewinds ctr and the register file exactly.
// A register unmapped after the checkpoint carries an unmapSeq younger than
// the branch; clearing those flags rewinds unmapped for every register
// that is not on a free list (a free register's flag decides nothing:
// tryArm and NoteSpecBoundary also test inRing, and alloc resets it).
// pending/armed/suppress are intentionally not snapshot state: pending and
// the armed list are maintained exactly by the pipeline's squash
// notifications, and suppress is only touched by squash-immune events.
func (e *EarlyRenamer) Restore(c Checkpoint) int {
	ck := c.(*earlyCkpt)
	copy(e.mapTable, ck.mapTable)
	recoveries := 0
	for k, fl := range e.freeLists {
		vers := e.popVer[k]
		for i := ck.freeMarks[k]; i < fl.head; i++ {
			p, v := fl.buf[i&fl.mask], vers[i&fl.mask]
			e.ctr[p] = v
			e.inRing[p] = true
			if e.rf.Rollback(p, v) {
				recoveries++
			}
		}
		fl.rewind(ck.freeMarks[k])
	}
	for p, s := range e.unmapSeq {
		if s > ck.seq {
			e.unmapped[p] = false
		}
	}
	return recoveries
}

// RestoreArch implements Renamer.
func (e *EarlyRenamer) RestoreArch() int {
	recoveries := 0
	live := e.archLive
	for p := range live {
		live[p] = false
	}
	for l := 0; l < e.numLog; l++ {
		t := e.retireMap[l]
		e.mapTable[l] = t
		live[t.Reg] = true
		e.ctr[t.Reg] = t.Ver
		if e.rf.Rollback(t.Reg, t.Ver) {
			recoveries++
		}
	}
	for p := range e.ctr {
		e.pending[p] = 0
		e.unmapped[p] = false
		e.armed[p] = false
		e.suppress[p] = 0
	}
	e.armedList = e.armedList[:0]
	for k := range e.freeLists {
		e.freeLists[k].reset()
	}
	for p := 0; p < e.rf.Size(); p++ {
		e.inRing[p] = false
		if !live[p] && e.retireRefs[p] == 0 {
			e.freeLists[e.rf.ShadowCells(PhysReg(p))].push(PhysReg(p))
			e.inRing[p] = true
		}
	}
	return recoveries
}

// FreeRegs implements Renamer.
func (e *EarlyRenamer) FreeRegs() int {
	n := 0
	for k := range e.freeLists {
		n += e.freeLists[k].len()
	}
	return n
}

// RetireTag implements Renamer.
//
//repro:hotpath
func (e *EarlyRenamer) RetireTag(log uint8) Tag { return e.retireMap[log] }

// Stats implements Renamer.
func (e *EarlyRenamer) Stats() *Stats { return &e.stats }
