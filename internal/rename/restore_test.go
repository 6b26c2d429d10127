package rename

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/regfile"
)

// This file keeps the full-state snapshot restore as the reference oracle
// for Restore. For the early renamer it is exactly the Restore that predates
// allocation-sized checkpoints: copy the map table, ctr, unmapped and
// unmapSeq back, roll every register back to its snapshot version, rewind
// the rings and rebuild inRing from their contents. For the baseline and
// reuse renamers it is what their own Restore does. A randomized driver
// modelled on perfbench's renamer replay — but with squashes — takes a
// snapshot at every checkpoint and requires every Restore to leave the
// renamer in the state the snapshot restore would have produced.

// restoreLog is the number of logical registers the driver renames.
const restoreLog = 8

// restoreLayouts are the register files the driver picks from: tight and
// roomy shadow banks, and one with no shadow bank but bank 3.
var restoreLayouts = []regfile.BankSizes{
	{10, 3, 3, 2},
	{12, 4, 4, 4},
	{9, 0, 0, 3},
}

// renState is one renamer's speculative state plus the register file's
// main-cell versions. Fields a scheme does not have stay nil.
type renState struct {
	mapTable []Tag
	stolen   []bool   // reuse
	ctr      []Ver    // reuse, early
	readBit  []bool   // reuse
	maxVer   []Ver    // reuse
	unmapped []bool   // early
	unmapSeq []uint64 // early
	inRing   []bool   // early
	head     [regfile.MaxShadow + 1]uint64
	tail     [regfile.MaxShadow + 1]uint64
	ring     [regfile.MaxShadow + 1][]PhysReg
	mask     [regfile.MaxShadow + 1]uint64
	mainVer  []Ver
}

func captureRings(s *renState, rings []*freeRing) {
	for k, fl := range rings {
		s.head[k], s.tail[k], s.mask[k] = fl.head, fl.tail, fl.mask
		s.ring[k] = append([]PhysReg(nil), fl.buf...)
	}
}

// capture copies r's full state.
func capture(r Renamer, rf *regfile.File) *renState {
	s := &renState{mainVer: make([]Ver, rf.Size())}
	for p := range s.mainVer {
		s.mainVer[p] = rf.MainVer(PhysReg(p))
	}
	switch r := r.(type) {
	case *BaselineRenamer:
		s.mapTable = append([]Tag(nil), r.mapTable...)
		captureRings(s, []*freeRing{r.freeList})
	case *ReuseRenamer:
		for _, m := range r.mapTable {
			s.mapTable = append(s.mapTable, m.tag)
			s.stolen = append(s.stolen, m.stolen)
		}
		s.ctr = append([]Ver(nil), r.ctr...)
		s.readBit = append([]bool(nil), r.readBit...)
		s.maxVer = append([]Ver(nil), r.maxVer...)
		captureRings(s, r.freeLists[:])
	case *EarlyRenamer:
		s.mapTable = append([]Tag(nil), r.mapTable...)
		s.ctr = append([]Ver(nil), r.ctr...)
		s.unmapped = append([]bool(nil), r.unmapped...)
		s.unmapSeq = append([]uint64(nil), r.unmapSeq...)
		s.inRing = append([]bool(nil), r.inRing...)
		captureRings(s, r.freeLists[:])
	}
	return s
}

// snapshotRestore is the reference: the state and recover-command count a
// restore of snap produces from the current state pre. Everything the
// snapshot holds comes back; the rings keep pre's tails (releases since the
// checkpoint survive); every register rolls back to its snapshot version
// (schemes with versions); inRing is rebuilt from the rewound rings.
func snapshotRestore(snap, pre *renState) (*renState, int) {
	want := *snap
	want.tail, want.ring = pre.tail, pre.ring
	want.mainVer = append([]Ver(nil), pre.mainVer...)
	recoveries := 0
	if snap.ctr != nil {
		for p, v := range snap.ctr {
			if want.mainVer[p] > v {
				want.mainVer[p] = v
				recoveries++
			}
		}
	}
	if snap.inRing != nil {
		want.inRing = make([]bool, len(snap.inRing))
		for k := range want.ring {
			for i := want.head[k]; i < want.tail[k]; i++ {
				want.inRing[want.ring[k][i&want.mask[k]]] = true
			}
		}
	}
	return &want, recoveries
}

// diffState reports the first difference between got and want. Registers
// on a free list may keep a stale unmapped flag (it decides nothing before
// alloc resets it), and unmapSeq only means something under a set flag.
func diffState(got, want *renState) string {
	for l := range want.mapTable {
		if got.mapTable[l] != want.mapTable[l] {
			return fmt.Sprintf("map table r%d = %+v, want %+v", l, got.mapTable[l], want.mapTable[l])
		}
		if want.stolen != nil && got.stolen[l] != want.stolen[l] {
			return fmt.Sprintf("r%d stolen = %v, want %v", l, got.stolen[l], want.stolen[l])
		}
	}
	for k := range want.head {
		if got.head[k] != want.head[k] || got.tail[k] != want.tail[k] {
			return fmt.Sprintf("ring %d [%d, %d), want [%d, %d)", k, got.head[k], got.tail[k], want.head[k], want.tail[k])
		}
	}
	for p := range want.mainVer {
		switch {
		case got.mainVer[p] != want.mainVer[p]:
			return fmt.Sprintf("P%d main version = %d, want %d", p, got.mainVer[p], want.mainVer[p])
		case want.ctr != nil && got.ctr[p] != want.ctr[p]:
			return fmt.Sprintf("P%d ctr = %d, want %d", p, got.ctr[p], want.ctr[p])
		case want.readBit != nil && got.readBit[p] != want.readBit[p]:
			return fmt.Sprintf("P%d read bit = %v, want %v", p, got.readBit[p], want.readBit[p])
		case want.maxVer != nil && got.maxVer[p] != want.maxVer[p]:
			return fmt.Sprintf("P%d maxVer = %d, want %d", p, got.maxVer[p], want.maxVer[p])
		case want.inRing != nil && got.inRing[p] != want.inRing[p]:
			return fmt.Sprintf("P%d inRing = %v, want %v", p, got.inRing[p], want.inRing[p])
		case want.unmapped != nil && !want.inRing[p] && got.unmapped[p] != want.unmapped[p]:
			return fmt.Sprintf("P%d unmapped = %v, want %v", p, got.unmapped[p], want.unmapped[p])
		case want.unmapped != nil && !want.inRing[p] && want.unmapped[p] && got.unmapSeq[p] != want.unmapSeq[p]:
			return fmt.Sprintf("P%d unmapSeq = %d, want %d", p, got.unmapSeq[p], want.unmapSeq[p])
		}
	}
	return ""
}

// drvInst is one instruction between rename and commit in the driver.
type drvInst struct {
	seq     uint64
	hasDest bool
	dest    DestResult
	src     [2]Tag
	nsrc    int
	pending [2]bool // source slot still waiting for its value
	done    bool    // executed and written back
	branch  bool
	ckpt    Checkpoint
	snap    *renState
}

// restoreDriver drives one renamer the way the core's stages do: rename
// with noted sources (captured at once when already produced), writeback
// through rf.Write with a wakeup broadcast, in-order commit, a checkpoint
// and snapshot per branch, mispredicted branches that squash everything
// younger (abandoning its source slots, SquashTo, Restore), rare full
// flushes (RestoreArch), and the speculation boundary after every step.
// Its decisions come from data, one byte at a time.
type restoreDriver struct {
	t        *testing.T
	data     []byte
	rf       *regfile.File
	ren      Renamer
	reuse    *ReuseRenamer
	early    *EarlyRenamer
	win      []*drvInst // oldest first
	seq      uint64
	boundary uint64
	restores int
}

// restoreWindow caps the instructions in flight, like a reorder buffer.
const restoreWindow = 24

func newRestoreDriver(t *testing.T, scheme string, data []byte) *restoreDriver {
	d := &restoreDriver{t: t, data: data}
	banks := restoreLayouts[d.next(len(restoreLayouts))]
	switch scheme {
	case "baseline":
		d.rf = regfile.New(regfile.Uniform(banks.Total(), 0))
		d.ren = NewBaseline(restoreLog, d.rf)
	case "reuse":
		d.rf = regfile.New(banks)
		d.reuse = NewReuse(DefaultReuseConfig(), restoreLog, d.rf, NewTypePredictor(16))
		d.ren = d.reuse
	case "early":
		d.rf = regfile.New(banks)
		d.early = NewEarly(restoreLog, d.rf)
		d.ren = d.early
	}
	return d
}

// next consumes one byte as a choice in [0, n); an exhausted input reads 0.
func (d *restoreDriver) next(n int) int {
	if len(d.data) == 0 {
		return 0
	}
	b := int(d.data[0])
	d.data = d.data[1:]
	return b % n
}

// run plays the whole input, then drains the window and checks the free
// lists.
func (d *restoreDriver) run() {
	for len(d.data) > 0 {
		switch op := d.next(256); {
		case op < 112:
			d.rename()
		case op < 160:
			d.execute(false)
		case op < 208:
			d.commit()
		case op < 250:
			d.execute(true)
		default:
			d.flush()
		}
		d.noteBoundary()
	}
	for len(d.win) > 0 {
		if !d.win[0].done {
			d.writeback(d.win[0])
		}
		d.commit()
	}
	d.noteBoundary()
	d.checkFreeLists(true)
}

func (d *restoreDriver) rename() {
	if len(d.win) >= restoreWindow {
		return
	}
	dest := d.next(restoreLog + 1) // restoreLog: no destination
	nsrc := d.next(3)
	var logs [2]uint8
	for i := 0; i < nsrc; i++ {
		logs[i] = uint8(d.next(restoreLog))
	}
	branch := d.next(4) == 0
	pc := uint64(d.next(64)) * 4
	if d.reuse != nil {
		// Stolen sources are migrated by a move micro-op first (§IV-D1).
		for _, l := range logs[:nsrc] {
			if !d.reuse.PeekSrc(l).Stolen {
				continue
			}
			rep, ok := d.reuse.RepairSteal(l)
			if !ok {
				return
			}
			d.dispatch(&drvInst{hasDest: true, dest: rep.Dest, src: [2]Tag{rep.From}, nsrc: 1})
		}
	}
	in := &drvInst{nsrc: nsrc, branch: branch}
	for i := 0; i < nsrc; i++ {
		in.src[i] = d.ren.PeekSrc(logs[i]).Tag
	}
	if d.early != nil {
		d.early.NoteRenamed(d.seq)
		for _, tag := range in.src[:nsrc] {
			d.early.NoteSrcSlot(tag)
		}
	}
	cand := logs[:nsrc]
	if nsrc == 2 && logs[0] == logs[1] {
		cand = logs[:1]
	}
	if dest < restoreLog {
		res, ok := d.ren.RenameDest(pc, uint8(dest), cand)
		if !ok {
			if d.early != nil {
				for _, tag := range in.src[:nsrc] {
					d.early.NoteSrcConsumed(tag)
				}
			}
			return
		}
		in.hasDest, in.dest = true, res
	} else {
		for _, l := range cand {
			d.ren.MarkSrcRead(l)
		}
	}
	d.dispatch(in)
}

// dispatch gives in the next sequence number, checkpoints a branch (after
// renaming it, as dispatch does) and captures the sources already produced.
func (d *restoreDriver) dispatch(in *drvInst) {
	in.seq = d.seq
	d.seq++
	d.win = append(d.win, in)
	if in.branch {
		in.ckpt = d.ren.Checkpoint()
		in.snap = capture(d.ren, d.rf)
	}
	for i, tag := range in.src[:in.nsrc] {
		if !d.rf.Produced(tag.Reg, tag.Ver) {
			in.pending[i] = true
			continue
		}
		if d.early != nil {
			d.early.NoteSrcConsumed(tag)
		}
	}
}

// execute writes back a random ready instruction; with mispredict it picks
// a ready branch and squashes everything younger.
func (d *restoreDriver) execute(mispredict bool) {
	var ready []int
	for i, in := range d.win {
		if !in.done && !in.pending[0] && !in.pending[1] && (!mispredict || in.branch) {
			ready = append(ready, i)
		}
	}
	if len(ready) == 0 {
		return
	}
	i := ready[d.next(len(ready))]
	d.writeback(d.win[i])
	if mispredict {
		d.squashAfter(i)
	}
}

func (d *restoreDriver) writeback(in *drvInst) {
	in.done = true
	if !in.hasDest {
		return
	}
	tag := in.dest.Tag
	d.rf.Write(tag.Reg, tag.Ver, in.seq)
	for _, w := range d.win {
		for s := range w.src[:w.nsrc] {
			if w.pending[s] && w.src[s] == tag {
				w.pending[s] = false
				if d.early != nil {
					d.early.NoteSrcConsumed(tag)
				}
			}
		}
	}
	if d.early != nil {
		d.early.NoteWriteback(tag)
	}
}

// squashAfter drops the instructions younger than the branch at window
// index bi and restores its checkpoint, comparing the result with the
// snapshot restore.
func (d *restoreDriver) squashAfter(bi int) {
	b := d.win[bi]
	for _, dead := range d.win[bi+1:] {
		if dead.branch {
			d.ren.ReleaseCheckpoint(dead.ckpt)
		}
		if d.early != nil {
			for s, tag := range dead.src[:dead.nsrc] {
				if dead.pending[s] {
					d.early.NoteSrcConsumed(tag)
				}
			}
		}
	}
	d.win = d.win[:bi+1]
	if d.early != nil {
		d.early.SquashTo(b.seq)
	}
	want, wantRec := snapshotRestore(b.snap, capture(d.ren, d.rf))
	rec := d.ren.Restore(b.ckpt)
	d.restores++
	if diff := diffState(capture(d.ren, d.rf), want); diff != "" {
		d.t.Fatalf("restore %d to branch seq %d: %s", d.restores, b.seq, diff)
	}
	if rec != wantRec {
		d.t.Fatalf("restore %d to branch seq %d: %d recover commands, want %d", d.restores, b.seq, rec, wantRec)
	}
	d.checkFreeLists(false)
}

func (d *restoreDriver) commit() {
	if len(d.win) == 0 || !d.win[0].done {
		return
	}
	in := d.win[0]
	if in.hasDest {
		d.ren.Commit(in.dest)
	}
	if in.branch {
		d.ren.ReleaseCheckpoint(in.ckpt)
	}
	d.win = d.win[1:]
}

// flush squashes the whole window and rebuilds from the retirement map, as
// an exception or interrupt does.
func (d *restoreDriver) flush() {
	for _, in := range d.win {
		if in.branch {
			d.ren.ReleaseCheckpoint(in.ckpt)
		}
	}
	d.win = d.win[:0]
	d.ren.RestoreArch()
	d.checkFreeLists(false)
}

// noteBoundary tells the early renamer the oldest unresolved branch.
func (d *restoreDriver) noteBoundary() {
	if d.early == nil {
		return
	}
	boundary := d.seq
	for _, in := range d.win {
		if in.branch && !in.done {
			boundary = in.seq
			break
		}
	}
	if boundary != d.boundary {
		d.boundary = boundary
		d.early.NoteSpecBoundary(boundary)
	}
}

// checkFreeLists requires every register to sit on at most one free list
// and to be free, mapped (speculatively or architecturally) or the
// destination of an instruction in flight, which is never free. Once the
// window has drained (end), the free count must be exactly the registers
// the retirement map does not hold — TestEarlyReleaseFreeListConservation's
// identity.
func (d *restoreDriver) checkFreeLists(end bool) {
	s := capture(d.ren, d.rf)
	free := make([]bool, d.rf.Size())
	for k := range s.ring {
		for i := s.head[k]; i < s.tail[k]; i++ {
			p := s.ring[k][i&s.mask[k]]
			if free[p] {
				d.t.Fatalf("P%d is on a free list twice", p)
			}
			free[p] = true
		}
	}
	held := make([]bool, d.rf.Size())
	arch := make([]bool, d.rf.Size())
	archLive := 0
	for l := 0; l < restoreLog; l++ {
		held[s.mapTable[l].Reg] = true
		if p := d.ren.RetireTag(uint8(l)).Reg; !arch[p] {
			arch[p], held[p] = true, true
			archLive++
		}
	}
	for _, in := range d.win {
		if in.hasDest {
			if free[in.dest.Tag.Reg] {
				d.t.Fatalf("P%d is free while seq %d in flight writes it", in.dest.Tag.Reg, in.seq)
			}
			held[in.dest.Tag.Reg] = true
		}
	}
	for p := range free {
		if !free[p] && !held[p] {
			d.t.Fatalf("P%d leaked: not free, mapped or in flight", p)
		}
	}
	if end {
		if got, want := d.ren.FreeRegs(), d.rf.Size()-archLive; got != want {
			d.t.Fatalf("drained: %d free registers, want %d (%d total, %d architecturally live)", got, want, d.rf.Size(), archLive)
		}
	}
}

var restoreSchemes = []string{"baseline", "reuse", "early"}

// TestRestoreMatchesSnapshot runs the driver over random inputs under every
// scheme, requiring ten restores per input on average so the comparison is
// not vacuous.
func TestRestoreMatchesSnapshot(t *testing.T) {
	seeds := 300
	if testing.Short() {
		seeds = 40
	}
	for _, scheme := range restoreSchemes {
		t.Run(scheme, func(t *testing.T) {
			restores := 0
			for seed := 0; seed < seeds; seed++ {
				r := rand.New(rand.NewSource(int64(seed)))
				data := make([]byte, 1500)
				r.Read(data)
				d := newRestoreDriver(t, scheme, data)
				d.run()
				restores += d.restores
			}
			if restores < 10*seeds {
				t.Fatalf("only %d restores over %d inputs", restores, seeds)
			}
		})
	}
}

// FuzzRestore is the native-fuzzing form of TestRestoreMatchesSnapshot: one
// input drives all three schemes. The seed corpus lives in
// testdata/fuzz/FuzzRestore.
func FuzzRestore(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, scheme := range restoreSchemes {
			newRestoreDriver(t, scheme, data).run()
		}
	})
}
