package rename

import (
	"fmt"

	"repro/internal/regfile"
)

// ReuseConfig tunes the paper's scheme.
type ReuseConfig struct {
	// MaxVersions caps the number of reuses per register lifetime; the
	// paper's 2-bit counter allows 3 (§IV-A). Lowering it is the N-bit
	// counter ablation.
	MaxVersions int
	// SpeculativeReuse enables reusing a register whose consumer is not
	// the redefining instruction, guarded by the type predictor (§IV-D).
	// Disabling it keeps only the guaranteed (redefining) reuse.
	SpeculativeReuse bool
}

// DefaultReuseConfig matches the paper: 2-bit counter, predictor-guided
// speculative reuse.
func DefaultReuseConfig() ReuseConfig {
	return ReuseConfig{MaxVersions: 3, SpeculativeReuse: true}
}

// prtEntry holds the per-register predictor bookkeeping needed at release.
// The checkpointed Physical Register Table state (§IV-A: the Read bit, the
// 2-bit counter and the lifetime max version) lives in the renamer's
// parallel ctr/readBit/maxVer slices instead, so Checkpoint/Restore are
// bulk copies rather than per-entry gathers.
type prtEntry struct {
	predIdx int16 // type-predictor entry that allocated this register
	// predSingle records whether the type predictor predicted this
	// register single-use at allocation. This is the prediction itself,
	// not bank membership: free-list fallback can place a predicted
	// multi-use value in a shadow bank (or vice versa), and only the
	// prediction licenses speculative reuse (§IV-D).
	predSingle bool
	// predWant is the predicted reuse count at allocation, kept so the
	// release-time update compares the prediction against the *actual*
	// number of reuses (§IV-D) rather than against the bank the fallback
	// happened to provide.
	predWant uint8
}

// ReuseRenamer implements the paper's renaming scheme for one register
// class.
type ReuseRenamer struct {
	cfg       ReuseConfig
	numLog    int
	mapTable  []mapEntry
	retireMap []Tag
	// retireRefs counts how many retirement-map entries point at each
	// physical register; a register is freed when its count drops to zero
	// at commit (register sharing can push it to 2 transiently).
	retireRefs []uint8
	prt        []prtEntry
	// Checkpointed PRT state, struct-of-arrays (indexed by physical reg).
	ctr     []Ver // current (newest) version
	readBit []bool
	maxVer  []Ver // highest version reached this allocation lifetime

	freeLists [regfile.MaxShadow + 1]*freeRing
	rf        *regfile.File
	pred      *TypePredictor
	stats     Stats
	ckptPool  []*reuseCkpt

	// RestoreArch scratch (exception/interrupt recovery).
	archLive []bool
	archVer  []Ver
}

type mapEntry struct {
	tag    Tag
	stolen bool
}

type reuseCkpt struct {
	mapTable  []mapEntry
	ctr       []Ver
	readBit   []bool
	maxVer    []Ver
	freeMarks [regfile.MaxShadow + 1]uint64
}

var _ Renamer = (*ReuseRenamer)(nil)

// NewReuse creates a reuse renamer for numLog logical registers backed by
// the banked file rf, sharing the given type predictor.
func NewReuse(cfg ReuseConfig, numLog int, rf *regfile.File, pred *TypePredictor) *ReuseRenamer {
	if rf.Size() <= numLog {
		panic(fmt.Sprintf("rename: register file of %d cannot back %d logical registers", rf.Size(), numLog))
	}
	if cfg.MaxVersions < 1 || cfg.MaxVersions > regfile.MaxShadow {
		panic("rename: MaxVersions must be 1..3")
	}
	r := &ReuseRenamer{
		cfg:        cfg,
		numLog:     numLog,
		mapTable:   make([]mapEntry, numLog),
		retireMap:  make([]Tag, numLog),
		retireRefs: make([]uint8, rf.Size()),
		prt:        make([]prtEntry, rf.Size()),
		ctr:        make([]Ver, rf.Size()),
		readBit:    make([]bool, rf.Size()),
		maxVer:     make([]Ver, rf.Size()),
		rf:         rf,
		pred:       pred,
		archLive:   make([]bool, rf.Size()),
		archVer:    make([]Ver, rf.Size()),
	}
	for i := range r.prt {
		r.prt[i].predIdx = -1
	}
	for k := range r.freeLists {
		r.freeLists[k] = newFreeRing(rf.Size())
	}
	// Architectural state starts in the lowest-numbered registers (the
	// 0-shadow bank first, by construction of regfile.New).
	for l := 0; l < numLog; l++ {
		t := Tag{Reg: PhysReg(l)}
		r.mapTable[l] = mapEntry{tag: t}
		r.retireMap[l] = t
		r.retireRefs[l] = 1
		r.readBit[l] = true // committed state: be conservative
		rf.Write(PhysReg(l), 0, 0)
	}
	for p := numLog; p < rf.Size(); p++ {
		k := rf.ShadowCells(PhysReg(p))
		r.freeLists[k].push(PhysReg(p))
	}
	return r
}

// PeekSrc implements Renamer.
//
//repro:hotpath
func (r *ReuseRenamer) PeekSrc(log uint8) SrcInfo {
	e := r.mapTable[log]
	if e.stolen {
		return SrcInfo{Tag: e.tag, Stolen: true}
	}
	return SrcInfo{Tag: e.tag, FirstUse: !r.readBit[e.tag.Reg]}
}

// MarkSrcRead implements Renamer: set the Read bit; a second consumer of a
// predicted-single-use register resets the predictor entry (§IV-D).
//
//repro:hotpath
func (r *ReuseRenamer) MarkSrcRead(log uint8) Tag {
	e := r.mapTable[log]
	if e.stolen {
		panic("rename: MarkSrcRead on stolen mapping (repair it first)")
	}
	p := e.tag.Reg
	pe := &r.prt[p]
	if r.readBit[p] && pe.predSingle {
		r.stats.MultiUseSeen++
		r.pred.Reset(int(pe.predIdx))
	}
	r.readBit[p] = true
	return e.tag
}

// RenameDest implements Renamer. srcLogs must be deduplicated same-class,
// non-stolen source logical registers. On success the sources' Read bits are
// set; a reused destination clears the bit again and bumps the counter.
//
//repro:hotpath
func (r *ReuseRenamer) RenameDest(pc uint64, destLog uint8, srcLogs []uint8) (DestResult, bool) {
	// Decide reuse using pre-read state. blocked remembers the most
	// specific obstacle seen across the candidates, purely for
	// observability (DestResult.Reason).
	reuseSrc := -1
	sameLog := false
	blocked := ReasonNone
	for i, sl := range srcLogs {
		e := r.mapTable[sl]
		if e.stolen {
			panic("rename: RenameDest with stolen source (repair it first)")
		}
		p := e.tag.Reg
		pe := &r.prt[p]
		if r.readBit[p] {
			blocked = maxReason(blocked, ReasonSrcRead)
			continue // not the first consumer
		}
		isRedef := sl == destLog
		if !isRedef && !(r.cfg.SpeculativeReuse && pe.predSingle && r.ctr[p] == 0) {
			// Not the redefining instruction: reuse is only speculated
			// when the register was predicted single-use, and only for
			// its first (allocated) version — the predictor entry
			// describes the allocating instruction's value; later
			// versions belong to different producer PCs whose use
			// counts it knows nothing about.
			blocked = maxReason(blocked, ReasonNotPredicted)
			continue
		}
		if r.ctr[p] >= Ver(r.cfg.MaxVersions) {
			r.stats.BlockedSat++
			blocked = maxReason(blocked, ReasonCtrSaturated)
			continue
		}
		if r.ctr[p] >= r.rf.ShadowCells(p) {
			// No free shadow cell: reuse impossible; teach the
			// predictor to allocate a bigger bank next time (§IV-D).
			r.stats.BlockedShadow++
			if r.rf.ShadowCells(p) == 0 {
				r.stats.PredNormalWrong++
			}
			r.pred.Increment(int(pe.predIdx))
			blocked = maxReason(blocked, ReasonNoShadowCell)
			continue
		}
		reuseSrc = i
		sameLog = isRedef
		if isRedef {
			break // prefer the guaranteed reuse
		}
	}

	if reuseSrc >= 0 {
		// Mark all source reads first (the reused register's Read bit is
		// cleared below, after its own read).
		for _, sl := range srcLogs {
			r.MarkSrcRead(sl)
		}
		sl := srcLogs[reuseSrc]
		e := r.mapTable[sl]
		p := e.tag.Reg
		newVer := r.ctr[p] + 1
		r.ctr[p] = newVer
		r.readBit[p] = false
		if newVer > r.maxVer[p] {
			r.maxVer[p] = newVer
		}
		if !sameLog {
			// The source's logical register still maps the old version;
			// flag it so a later consumer triggers repair (§IV-D1).
			r.mapTable[sl] = mapEntry{tag: e.tag, stolen: true}
			r.stats.ReusePredict++
		} else {
			r.stats.ReuseSameLog++
		}
		r.stats.ReusesByVer[newVer]++
		r.mapTable[destLog] = mapEntry{tag: Tag{Reg: p, Ver: newVer}}
		reason := ReasonReusedSpec
		if sameLog {
			reason = ReasonReusedRedef
		}
		return DestResult{
			Log: destLog, Tag: Tag{Reg: p, Ver: newVer},
			Reused: true, ReusedSameLog: sameLog, Reason: reason,
		}, true
	}

	// Allocation path, guided by the type predictor.
	idx := r.pred.Index(pc)
	want := r.pred.Predict(idx)
	p, bank, ok := r.alloc(want)
	if !ok {
		return DestResult{}, false
	}
	for _, sl := range srcLogs {
		r.MarkSrcRead(sl)
	}
	r.prt[p] = prtEntry{predIdx: int16(idx), predSingle: want > 0, predWant: want}
	r.ctr[p], r.readBit[p], r.maxVer[p] = 0, false, 0
	r.rf.ResetOnAlloc(p)
	r.mapTable[destLog] = mapEntry{tag: Tag{Reg: p}}
	r.stats.Allocations++
	r.stats.AllocsPerBank[bank]++
	return DestResult{Log: destLog, Tag: Tag{Reg: p}, Allocated: true, Reason: blocked}, true
}

//repro:hotpath
func maxReason(a, b Reason) Reason {
	if b > a {
		return b
	}
	return a
}

// alloc takes a register from the bank closest to the predicted shadow-cell
// count (§IV-D: "a register with the closest number of shadow cells").
//
//repro:hotpath
func (r *ReuseRenamer) alloc(want uint8) (PhysReg, int, bool) {
	order := allocOrder[want]
	for _, k := range order {
		if p, ok := r.freeLists[k].pop(); ok {
			return p, int(k), true
		}
	}
	return 0, 0, false
}

// allocOrder[w] lists banks by |bank−w|, larger bank first on ties so a
// predicted-reusable register keeps at least one shadow cell if possible.
var allocOrder = [regfile.MaxShadow + 1][regfile.MaxShadow + 1]uint8{
	{0, 1, 2, 3},
	{1, 2, 0, 3},
	{2, 3, 1, 0},
	{3, 2, 1, 0},
}

// RepairSteal implements Renamer (§IV-D1).
func (r *ReuseRenamer) RepairSteal(log uint8) (Repair, bool) {
	e := r.mapTable[log]
	if !e.stolen {
		panic("rename: RepairSteal on non-stolen mapping")
	}
	// The repair *is* the detection of a single-use misprediction: reset
	// the predictor entry that allocated the stolen register so the same
	// PC stops producing speculatively-reusable registers (§IV-D).
	r.pred.Reset(int(r.prt[e.tag.Reg].predIdx))
	p2, bank, ok := r.alloc(0) // migrated values get a plain register
	if !ok {
		return Repair{}, false
	}
	r.prt[p2] = prtEntry{predIdx: -1}
	r.ctr[p2], r.readBit[p2], r.maxVer[p2] = 0, false, 0
	r.rf.ResetOnAlloc(p2)
	r.mapTable[log] = mapEntry{tag: Tag{Reg: p2}}
	r.stats.Repairs++
	r.stats.Allocations++
	r.stats.AllocsPerBank[bank]++
	checkpointed := r.rf.MainVer(e.tag.Reg) > e.tag.Ver
	return Repair{
		From:         e.tag,
		Checkpointed: checkpointed,
		Dest:         DestResult{Log: log, Tag: Tag{Reg: p2}, Allocated: true},
	}, true
}

// Commit implements Renamer.
//
//repro:hotpath
func (r *ReuseRenamer) Commit(res DestResult) {
	r.retireRefs[res.Tag.Reg]++
	old := r.retireMap[res.Log]
	r.retireMap[res.Log] = res.Tag
	r.retireRefs[old.Reg]--
	if r.retireRefs[old.Reg] == 0 {
		r.release(old.Reg)
	}
}

// release returns p to its bank's free list and gives the type predictor
// its end-of-lifetime feedback (§IV-D).
//
//repro:hotpath
func (r *ReuseRenamer) release(p PhysReg) {
	pe := &r.prt[p]
	maxVer := r.maxVer[p]
	shadows := r.rf.ShadowCells(p)
	if pe.predIdx >= 0 {
		// Update the entry toward the actual number of reuses (§IV-D).
		if maxVer < Ver(pe.predWant) {
			r.pred.Decrement(int(pe.predIdx))
		} else if maxVer > Ver(pe.predWant) {
			r.pred.Increment(int(pe.predIdx))
		}
		switch {
		case shadows > 0 && maxVer > 0:
			r.stats.PredReuseRight++
		case shadows > 0:
			r.stats.PredReuseWrong++
		case maxVer == 0:
			r.stats.PredNormalRight++
		}
	}
	r.freeLists[shadows].push(p)
	r.stats.Releases++
}

// Checkpoint implements Renamer, recycling released snapshots.
func (r *ReuseRenamer) Checkpoint() Checkpoint {
	var c *reuseCkpt
	if n := len(r.ckptPool); n > 0 {
		c = r.ckptPool[n-1]
		r.ckptPool = r.ckptPool[:n-1]
		copy(c.mapTable, r.mapTable)
	} else {
		c = &reuseCkpt{
			mapTable: append([]mapEntry(nil), r.mapTable...),
			ctr:      make([]Ver, len(r.prt)),
			readBit:  make([]bool, len(r.prt)),
			maxVer:   make([]Ver, len(r.prt)),
		}
	}
	copy(c.ctr, r.ctr)
	copy(c.readBit, r.readBit)
	copy(c.maxVer, r.maxVer)
	for k := range r.freeLists {
		c.freeMarks[k] = r.freeLists[k].mark()
	}
	return c
}

// ReleaseCheckpoint implements Renamer.
func (r *ReuseRenamer) ReleaseCheckpoint(c Checkpoint) {
	if ck, ok := c.(*reuseCkpt); ok && len(r.ckptPool) < 256 {
		r.ckptPool = append(r.ckptPool, ck)
	}
}

// Restore implements Renamer: rewind speculative state and issue recover
// commands for registers whose main cell holds a squashed version.
func (r *ReuseRenamer) Restore(c Checkpoint) int {
	ck := c.(*reuseCkpt)
	copy(r.mapTable, ck.mapTable)
	copy(r.ctr, ck.ctr)
	copy(r.readBit, ck.readBit)
	copy(r.maxVer, ck.maxVer)
	recoveries := 0
	for i := range r.prt {
		if r.rf.Rollback(PhysReg(i), ck.ctr[i]) {
			recoveries++
		}
	}
	for k := range r.freeLists {
		r.freeLists[k].rewind(ck.freeMarks[k])
	}
	return recoveries
}

// RestoreArch implements Renamer: after an exception/interrupt the rename
// map table is rebuilt from the retirement map, registers recover their
// architectural versions from shadow cells, and free lists are rebuilt.
//
// A shared register can be architecturally mapped by two logical registers
// at different versions (the stolen-register case, §IV-D1): its main cell
// must recover the *newest* committed version, while the older mapping stays
// flagged stolen — its value remains in a shadow cell until a consumer
// triggers the repair micro-op.
func (r *ReuseRenamer) RestoreArch() int {
	recoveries := 0
	live, archVer := r.archLive, r.archVer
	for p := range live {
		live[p] = false
		archVer[p] = 0
	}
	for l := 0; l < r.numLog; l++ {
		t := r.retireMap[l]
		if !live[t.Reg] || t.Ver > archVer[t.Reg] {
			archVer[t.Reg] = t.Ver
		}
		live[t.Reg] = true
	}
	for l := 0; l < r.numLog; l++ {
		t := r.retireMap[l]
		r.mapTable[l] = mapEntry{tag: t, stolen: t.Ver < archVer[t.Reg]}
	}
	for p := range r.prt {
		if !live[p] {
			continue
		}
		r.ctr[p] = archVer[p]
		r.readBit[p] = true // conservative: block reuse of pre-exception values
		if r.rf.Rollback(PhysReg(p), archVer[p]) {
			recoveries++
		}
	}
	for k := range r.freeLists {
		r.freeLists[k].reset()
	}
	for p := 0; p < len(r.prt); p++ {
		if !live[p] && r.retireRefs[p] == 0 {
			k := r.rf.ShadowCells(PhysReg(p))
			r.freeLists[k].push(PhysReg(p))
		}
	}
	return recoveries
}

// FreeRegs implements Renamer.
func (r *ReuseRenamer) FreeRegs() int {
	n := 0
	for k := range r.freeLists {
		n += r.freeLists[k].len()
	}
	return n
}

// RetireTag implements Renamer.
//
//repro:hotpath
func (r *ReuseRenamer) RetireTag(log uint8) Tag { return r.retireMap[log] }

// Stats implements Renamer.
func (r *ReuseRenamer) Stats() *Stats { return &r.stats }

// LiveVersionCount reports, for Figure 9's occupancy analysis, how many
// non-free physical registers currently sit at version ≥ k (i.e. are using
// at least k shadow cells).
//
//repro:hotpath
func (r *ReuseRenamer) LiveVersionCount(k Ver) int {
	n := 0
	for p := range r.prt {
		if r.ctr[p] >= k && r.maxVer[p] > 0 && !r.isFree(PhysReg(p)) {
			n++
		}
	}
	return n
}

//repro:hotpath
func (r *ReuseRenamer) isFree(p PhysReg) bool {
	fl := r.freeLists[r.rf.ShadowCells(p)]
	for i := fl.head; i < fl.tail; i++ {
		if fl.buf[i%uint64(len(fl.buf))] == p {
			return true
		}
	}
	return false
}
