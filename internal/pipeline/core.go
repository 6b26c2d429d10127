package pipeline

import (
	"fmt"

	"repro/internal/bpred"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/memsys"
	"repro/internal/obs"
	"repro/internal/prog"
	"repro/internal/regfile"
	"repro/internal/rename"
)

type excCode uint8

const (
	excNone excCode = iota
	excPageFault
	excMisalign
)

// fetchRec is one instruction in the fetch queue. It carries the micro-op
// table index instead of the instruction itself: every stage downstream
// reads the pre-decoded columns (or, on observer/debug paths, reconstructs
// the isa.Inst) through idx, so nothing re-decodes per cycle. pred is only
// written — and only valid — when branch is set.
type fetchRec struct {
	pc      uint64
	fetched uint64 // cycle the instruction entered the fetch queue
	idx     int32  // micro-op table index
	branch  bool
	pred    bpred.Prediction
}

// robEntry is the one record of an in-flight instruction, from dispatch to
// commit or squash. idx indexes the micro-op table (-1 for injected repair
// micro-ops, which have no static instruction). pred is only valid when
// isBranch is set. An entry waiting to issue has inIQ set: fu, lat and
// unpipe describe its execution, src its operands, and pending counts the
// sources still waiting on a value, each linked on its (class, tag) wakeup
// list (queues.go). lsq is a load's LQ slot or a store's SQ slot.
type robEntry struct {
	active bool
	seq    uint64
	pc     uint64
	nextPC uint64
	idx    int32

	micro       bool // injected repair move micro-op (§IV-D1)
	microShadow bool

	inIQ    bool
	unpipe  bool
	fu      isa.FU
	lat     uint8
	pending int8
	src     [2]iqSrc

	hasDest   bool
	destClass isa.RegClass
	dest      rename.DestResult
	resultVal uint64

	completed bool
	exc       excCode
	excAddr   uint64

	isLoad  bool
	isStore bool
	lsq     int32
	effAddr uint64

	isBranch     bool
	pred         bpred.Prediction
	ckptI, ckptF rename.Checkpoint
	actualTaken  bool
	actualTarget uint64

	halt bool
}

// iqSrc is one source operand of an issue-queue entry: its wakeup tag and,
// once ready, its captured value.
type iqSrc struct {
	used  bool
	class isa.RegClass
	tag   rename.Tag
	ready bool
	val   uint64
}

// lqEntry is a load's LQ slot. sqEnd, Core.sqPopped+sqCnt at the load's
// dispatch, is where its older stores end: sqEnd-sqPopped of them are still
// in the SQ, at its head.
type lqEntry struct {
	seq   uint64
	sqEnd uint32
}

type sqEntry struct {
	seq       uint64
	addrKnown bool
	addr      uint64
	val       uint64
}

type wbEvent struct {
	robIdx int
	seq    uint64
}

// specBranch names one dispatched branch by ROB slot and sequence number
// (the pair tells a live entry from a later occupant of the slot).
type specBranch struct {
	robIdx int
	seq    uint64
}

// Core is the simulated out-of-order processor.
type Core struct {
	cfg  Config
	prog *prog.Program
	uops *prog.UOpTable // pre-decoded micro-op table (prog.UOps())
	mem  *emu.Memory    // committed memory state
	hier *memsys.Hierarchy
	bp   *bpred.Predictor

	rfInt, rfFP *regfile.File
	// renI/renF hold the renamers behind the scheme-agnostic interface for
	// the cold paths (flush, squash, checkpoints, stats). Dispatch and
	// commit switch on the scheme and use the concrete typed fields below,
	// so their per-instruction rename calls are direct and inlinable.
	renI, renF     rename.Renamer
	baseI, baseF   *rename.BaselineRenamer // non-nil for Scheme == Baseline
	reuseI, reuseF *rename.ReuseRenamer    // non-nil for Scheme == Reuse
	earlyI, earlyF *rename.EarlyRenamer    // non-nil for Scheme == EarlyRelease
	typePred       *rename.TypePredictor

	rob      []robEntry
	robHead  int
	robCount int
	seqNext  uint64

	// Issue queue: iqCount ROB entries with inIQ set (at most cfg.IQSize),
	// the seq-sorted ready list of their ROB indices, and the per-tag
	// wakeup lists that drive event-driven wakeup, linked through the ROB
	// source slots (node robIdx*2+src; wakeNext/wakePrev by node).
	iqCount   int
	readyList []int32
	wake      [2][]wakeList // [class][reg*(MaxShadow+1)+ver]
	wakeNext  []int32
	wakePrev  []int32

	// In-order queues as fixed-capacity rings.
	lq      []lqEntry
	lqHead  int
	lqCnt   int
	sq      []sqEntry
	sqHead  int
	sqCnt   int
	fetchQ  []fetchRec
	fqHead  int
	fqCount int

	// sqPopped counts the stores committed out of the SQ, modulo 2^32.
	sqPopped uint32

	// Writeback calendar ring (indexed by cycle & (len-1)).
	evRing    [][]wbEvent
	evPending int

	fuBusy [isa.NumFUs][]uint64 // per-slot busy-until cycle

	cycle         uint64
	fetchPC       uint64
	fetchResumeAt uint64
	fetchHalted   bool
	fetchLine     uint64 // last icache line fetched

	nextCommitPC  uint64
	pagePresent   map[uint64]bool
	lastPresent   uint64 // the page pageAbsent last found present
	nextInterrupt uint64

	// Early-release speculation boundary: specBr is a ring (sized like the
	// ROB, oldest at specBrHead) of the dispatched branches that may still
	// be unresolved, in program order; advanceSpecBoundary pops resolved
	// ones off its head. lastSpecBoundary is the last boundary notified.
	specBr           []specBranch
	specBrHead       int
	specBrCount      int
	lastSpecBoundary uint64

	// o is the attached observer (nil = observability off). Every
	// emission site in the pipeline is guarded by one nil check on this
	// field — the fast path the zero-allocation and benchmark contracts
	// rely on.
	o obs.Observer

	halted bool
	stats  Stats

	oracle    *emu.State
	oracleErr error
}

// New builds a core running p under cfg.
func New(cfg Config, p *prog.Program) *Core {
	c := &Core{
		cfg:  cfg,
		prog: p,
		uops: p.UOps(),
		hier: memsys.New(cfg.Mem),
		bp:   bpred.New(cfg.Bpred),
		rob:  make([]robEntry, cfg.ROBSize),

		readyList: make([]int32, 0, cfg.IQSize),
		wakeNext:  make([]int32, 2*cfg.ROBSize),
		wakePrev:  make([]int32, 2*cfg.ROBSize),
		lq:        make([]lqEntry, cfg.LQSize),
		sq:        make([]sqEntry, cfg.SQSize),
		fetchQ:    make([]fetchRec, cfg.FetchQSize),

		fetchPC:      p.Entry(),
		nextCommitPC: p.Entry(),
		pagePresent:  make(map[uint64]bool),
		lastPresent:  ^uint64(0),
		o:            cfg.Observer,
	}
	c.initEvents(1024)
	if cfg.Boot == nil {
		c.mem = emu.BootMemory(p)
	}

	c.rfInt = regfile.New(cfg.IntRegs)
	c.rfFP = regfile.New(cfg.FPRegs)
	switch cfg.Scheme {
	case Baseline:
		c.baseI = rename.NewBaseline(isa.NumIntRegs, c.rfInt)
		c.baseF = rename.NewBaseline(isa.NumFPRegs, c.rfFP)
		c.renI, c.renF = c.baseI, c.baseF
	case Reuse:
		c.typePred = rename.NewTypePredictor(cfg.PredictorSize)
		c.reuseI = rename.NewReuse(cfg.ReuseCfg, isa.NumIntRegs, c.rfInt, c.typePred)
		c.reuseF = rename.NewReuse(cfg.ReuseCfg, isa.NumFPRegs, c.rfFP, c.typePred)
		c.renI, c.renF = c.reuseI, c.reuseF
	case EarlyRelease:
		c.earlyI = rename.NewEarly(isa.NumIntRegs, c.rfInt)
		c.earlyF = rename.NewEarly(isa.NumFPRegs, c.rfFP)
		c.renI, c.renF = c.earlyI, c.earlyF
		c.specBr = make([]specBranch, cfg.ROBSize)
	}
	// Architectural register state: stack pointer, zero elsewhere (matches
	// emu.New). The renamers initialized logical l -> physical l.
	c.rfInt.Write(29, 0, prog.StackTop)

	// Wakeup lists, one per (physical register, version) tag.
	c.wake[0] = make([]wakeList, c.rfInt.Size()*(regfile.MaxShadow+1))
	c.wake[1] = make([]wakeList, c.rfFP.Size()*(regfile.MaxShadow+1))
	c.resetIQ()

	for fu := 0; fu < isa.NumFUs; fu++ {
		c.fuBusy[fu] = make([]uint64, cfg.FUCount[fu])
	}
	if cfg.InterruptEvery > 0 {
		c.nextInterrupt = cfg.InterruptEvery
	}
	if cfg.OccupancySampleInterval > 0 {
		for k := range c.stats.Occupancy {
			c.stats.Occupancy[k] = make([]uint64, cfg.IntRegs.Total()+cfg.FPRegs.Total()+1)
		}
	}
	if cfg.CheckOracle {
		if cfg.Boot != nil {
			c.oracle = emu.NewFromSnapshot(p, cfg.Boot)
		} else {
			c.oracle = emu.New(p)
		}
	}
	if cfg.Boot != nil {
		c.bootFrom(cfg.Boot, cfg.BootWarmup)
	}
	return c
}

func (c *Core) ren(class isa.RegClass) rename.Renamer {
	if class == isa.FPReg {
		return c.renF
	}
	return c.renI
}

// base/reuse/early return the concrete renamer for a class. Dispatch and
// commit call through these, behind a scheme switch, so every
// per-instruction rename operation is a direct (devirtualized) call on the
// concrete type.
//
//repro:hotpath
func (c *Core) base(class isa.RegClass) *rename.BaselineRenamer {
	if class == isa.FPReg {
		return c.baseF
	}
	return c.baseI
}

//repro:hotpath
func (c *Core) reuse(class isa.RegClass) *rename.ReuseRenamer {
	if class == isa.FPReg {
		return c.reuseF
	}
	return c.reuseI
}

//repro:hotpath
func (c *Core) early(class isa.RegClass) *rename.EarlyRenamer {
	if class == isa.FPReg {
		return c.earlyF
	}
	return c.earlyI
}

// instAt reconstructs the isa.Inst for a micro-op table index; repair
// micro-ops (idx < 0) render as NOP. Only observer, trace, and error paths
// need the instruction itself — the hot loops read the pre-decoded columns.
func (c *Core) instAt(idx int32) isa.Inst {
	if idx < 0 {
		return isa.Inst{Op: isa.NOP}
	}
	return c.uops.Inst[idx]
}

func (c *Core) rf(class isa.RegClass) *regfile.File {
	if class == isa.FPReg {
		return c.rfFP
	}
	return c.rfInt
}

// robIdxAt maps a position in the ROB window (0 = head, at most robCount)
// to its slot. Positions never exceed the ROB size, so one compare-and-
// subtract wraps them; ROBSize is configurable, so a mask is not always
// possible.
//
//repro:hotpath
func (c *Core) robIdxAt(pos int) int {
	i := c.robHead + pos
	if i >= len(c.rob) {
		i -= len(c.rob)
	}
	return i
}

func (c *Core) robTailIdx() int { return c.robIdxAt(c.robCount) }

// Stats returns the collected statistics.
func (c *Core) Stats() *Stats { return &c.stats }

// RenStats returns the renamer statistics for a class.
func (c *Core) RenStats(class isa.RegClass) *rename.Stats { return c.ren(class).Stats() }

// Hierarchy exposes the memory system (for stats).
func (c *Core) Hierarchy() *memsys.Hierarchy { return c.hier }

// RegFile exposes a physical register file (for energy accounting).
func (c *Core) RegFile(class isa.RegClass) *regfile.File { return c.rf(class) }

// Halted reports whether the program's HALT has committed.
func (c *Core) Halted() bool { return c.halted }

// Run simulates until HALT commits, the configured instruction budget is
// reached, or the cycle safety limit trips. It returns an error only for
// internal inconsistencies (oracle divergence, runaway simulation).
func (c *Core) Run() error { return c.RunTo(c.cfg.MaxInsts) }

// RunTo simulates until the committed-instruction count reaches target
// (0 = unlimited), HALT commits, or the cycle safety limit trips. The
// target is absolute, so callers can run a core in phases and take stats
// deltas at the boundaries — the sampling driver measures a detail interval
// net of its detailed-warmup prefix this way.
func (c *Core) RunTo(target uint64) error {
	maxCycles := c.cfg.MaxCycles
	if maxCycles == 0 {
		maxCycles = DefaultMaxCycles
	}
	for !c.halted && c.cycle < maxCycles {
		if target > 0 && c.stats.Committed >= target {
			break
		}
		c.step()
		if c.oracleErr != nil {
			return c.oracleErr
		}
		if c.cfg.DebugInvariants {
			if err := c.checkWindow(); err != nil {
				return err
			}
		}
	}
	c.stats.Cycles = c.cycle
	if !c.halted && c.cycle >= maxCycles {
		return fmt.Errorf("pipeline: cycle limit %d reached at pc=%#x (deadlock?)", maxCycles, c.nextCommitPC)
	}
	return nil
}

// StepN advances the simulation by up to n cycles, stopping early once HALT
// commits. It exists for benchmarks and the allocation-regression test; Run
// is the normal driver.
func (c *Core) StepN(n int) {
	for i := 0; i < n && !c.halted; i++ {
		c.step()
	}
}

// step advances one cycle. Stage order within a cycle: writeback events
// (wakeup/broadcast), commit, issue, rename/dispatch, fetch — so values
// produced at cycle T can feed instructions issuing at T (back-to-back
// dependent execution), and younger stages see the machine state left by
// older ones. The two scheme-conditional stages are guarded here: the
// early-release speculation boundary advances before issue so the early
// renamers see resolved branches, and the reuse scheme samples Figure 9
// occupancy after fetch.
//
//repro:hotpath
func (c *Core) step() {
	c.processEvents()
	if c.halted {
		c.stepTail()
		return
	}
	c.commit()
	if c.halted {
		c.stepTail()
		return
	}
	if c.cfg.Scheme == EarlyRelease {
		c.advanceSpecBoundary()
	}
	c.issue()
	c.renameDispatch()
	c.fetch()
	if ival := c.cfg.OccupancySampleInterval; ival > 0 && c.cfg.Scheme == Reuse && c.cycle%ival == 0 {
		c.sampleOccupancy()
	}
	c.stepTail()
}

// stepTail finishes a cycle: observer tick, clock advance.
//
//repro:hotpath
func (c *Core) stepTail() {
	c.endCycle()
	c.cycle++
}

// endCycle delivers the per-cycle observer tick; the caller advances the
// clock. The nil check is all the disabled path pays — the emission itself
// is out of line so this inlines to a compare-and-branch and the hot loop
// keeps the same per-cycle cost it had before observability existed.
//
//repro:hotpath
func (c *Core) endCycle() {
	if c.o != nil {
		c.o.Tick(obs.Tick{Cycle: c.cycle, Committed: c.stats.Committed, IQ: c.iqCount, ROB: c.robCount})
	}
}

// obsCore emits a core event. Callers must have checked c.o != nil.
//
//repro:obsemit
func (c *Core) obsCore(kind obs.CoreKind, seq, arg uint64) {
	c.o.Core(obs.CoreEvent{Cycle: c.cycle, Kind: kind, Seq: seq, Arg: arg})
}

// advanceSpecBoundary computes the sequence number below which no
// unresolved branch remains and notifies the early-release renamers. The
// oldest unresolved branch heads the specBr ring once the head entries that
// completed or left the ROB are popped, so the cost is the branches resolved
// since the last cycle rather than a ROB walk.
//
//repro:hotpath
func (c *Core) advanceSpecBoundary() {
	for c.specBrCount > 0 {
		b := c.specBrAt(0)
		if e := &c.rob[b.robIdx]; e.active && e.seq == b.seq && !e.completed {
			break
		}
		c.specBrHead++
		if c.specBrHead == len(c.specBr) {
			c.specBrHead = 0
		}
		c.specBrCount--
	}
	boundary := c.seqNext
	if c.specBrCount > 0 {
		boundary = c.specBrAt(0).seq
	}
	if c.cfg.DebugInvariants {
		c.checkSpecBoundary(boundary)
	}
	if boundary != c.lastSpecBoundary {
		c.lastSpecBoundary = boundary
		c.earlyI.NoteSpecBoundary(boundary)
		c.earlyF.NoteSpecBoundary(boundary)
	}
}

// specBrAt returns the specBr entry pos places after the head.
//
//repro:hotpath
func (c *Core) specBrAt(pos int) *specBranch {
	i := c.specBrHead + pos
	if i >= len(c.specBr) {
		i -= len(c.specBr)
	}
	return &c.specBr[i]
}

// checkSpecBoundary is the reference advanceSpecBoundary is checked against
// under DebugInvariants: the ROB walk from the head to the first uncompleted
// branch. The ring must also list exactly the ROB's branches from that one
// on, in order, so a stale or missing entry fails before it moves the
// boundary.
func (c *Core) checkSpecBoundary(boundary uint64) {
	ref, n := c.seqNext, 0
	for i := 0; i < c.robCount; i++ {
		e := &c.rob[c.robIdxAt(i)]
		if !e.isBranch || (n == 0 && e.completed) {
			continue
		}
		if n == 0 {
			ref = e.seq
		}
		if n >= c.specBrCount || *c.specBrAt(n) != (specBranch{robIdx: c.robIdxAt(i), seq: e.seq}) {
			panic(fmt.Sprintf("pipeline: cycle %d: branch ring entry %d is not ROB branch seq %d", c.cycle, n, e.seq))
		}
		n++
	}
	if n != c.specBrCount || ref != boundary {
		panic(fmt.Sprintf("pipeline: cycle %d: branch ring holds %d entries and gives boundary %d; the ROB walk finds %d and %d",
			c.cycle, c.specBrCount, boundary, n, ref))
	}
}

//repro:hotpath
func (c *Core) sampleOccupancy() {
	c.stats.OccupancySamples++
	for k := 1; k <= regfile.MaxShadow; k++ {
		n := c.reuseI.LiveVersionCount(regfile.Ver(k)) + c.reuseF.LiveVersionCount(regfile.Ver(k))
		if n >= len(c.stats.Occupancy[k]) {
			n = len(c.stats.Occupancy[k]) - 1
		}
		c.stats.Occupancy[k][n]++
	}
}
