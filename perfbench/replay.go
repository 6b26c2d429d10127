package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/prog"
	"repro/internal/regfile"
	"repro/internal/rename"
)

// rowRecorder is an emu.CommitSink that keeps the committed micro-op rows.
type rowRecorder struct{ rows []uint32 }

func (r *rowRecorder) CommitBatch(_ uint64, rows []uint32) { r.rows = append(r.rows, rows...) }

// replayRenamers measures the renamers with no pipeline around them: each
// detailed kernel's committed stream is recorded once, then replayed
// through the three schemes' renamers (scheme order shuffled per kernel) at
// the kernel's register-file sizes. It returns renamed instructions per host
// second by scheme, in millions.
func (b *bench) replayRenamers(ks []*kernel, rng *rand.Rand) [len(schemes)]float64 {
	var acc [len(schemes)]rateAcc
	for _, i := range rng.Perm(len(ks)) {
		k := ks[i]
		var rec rowRecorder
		if _, err := emu.New(k.p).RunToHaltBatch(1<<32, &rec); err != nil {
			b.attempted++
			b.fail("record %s: %v", k.w.Name, err)
			continue
		}
		for _, s := range rng.Perm(len(schemes)) {
			b.attempted++
			sch := schemes[s]
			sp := b.tr.begin("rename.replay", sch.String(), string(k.w.Suite))
			t0 := time.Now()
			n, err := replay(k.p.UOps(), rec.rows, equalAreaConfig(k.w.Name, sch, k.size))
			took := time.Since(t0)
			b.tr.end(sp, n)
			if err != nil {
				b.fail("replay %s/%s: %v", k.w.Name, sch, err)
				continue
			}
			acc[sch].add(n, took)
		}
	}
	var out [len(schemes)]float64
	for i := range acc {
		out[i] = acc[i].rawMIPS()
	}
	return out
}

// srcTag is a renamed source operand.
type srcTag struct {
	class isa.RegClass
	tag   rename.Tag
}

// inflight is one instruction between rename and commit in the replay.
type inflight struct {
	seq    uint64
	class  isa.RegClass // destination class; isa.NoReg when there is none
	dest   rename.DestResult
	branch bool
	ckpt   [2]rename.Checkpoint
	nsrc   int
	src    [2]srcTag
}

// replayer drives one scheme's integer and FP renamers the way the core's
// dispatch and commit stages do, over a committed stream: an in-order
// window the size of the reorder buffer, a checkpoint per branch, the reuse
// scheme's repair of stolen sources, and the early renamer's Note* hooks.
// Instructions execute and write back as they leave the window; the stream
// is the committed path, so nothing is squashed.
type replayer struct {
	u        *prog.UOpTable
	rf       [2]*regfile.File
	ren      [2]rename.Renamer
	reuse    [2]*rename.ReuseRenamer
	early    [2]*rename.EarlyRenamer
	win      []inflight
	head, n  int
	seq      uint64
	branches []uint64 // seqs of in-flight branches, oldest first
	boundary uint64
}

// replay renames rows under cfg and returns how many instructions were
// renamed. A renamer panic, which a consistent stream cannot cause, is
// returned as an error.
func replay(u *prog.UOpTable, rows []uint32, cfg pipeline.Config) (n uint64, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("renamer panic after %d instructions: %v", n, p)
		}
	}()
	r := &replayer{u: u, win: make([]inflight, cfg.ROBSize)}
	r.rf = [2]*regfile.File{regfile.New(cfg.IntRegs), regfile.New(cfg.FPRegs)}
	numLog := [2]int{isa.NumIntRegs, isa.NumFPRegs}
	switch cfg.Scheme {
	case pipeline.Baseline:
		for c := range r.ren {
			r.ren[c] = rename.NewBaseline(numLog[c], r.rf[c])
		}
	case pipeline.Reuse:
		pred := rename.NewTypePredictor(cfg.PredictorSize)
		for c := range r.ren {
			r.reuse[c] = rename.NewReuse(cfg.ReuseCfg, numLog[c], r.rf[c], pred)
			r.ren[c] = r.reuse[c]
		}
	case pipeline.EarlyRelease:
		for c := range r.ren {
			r.early[c] = rename.NewEarly(numLog[c], r.rf[c])
			r.ren[c] = r.early[c]
		}
	}
	for _, row := range rows {
		if u.Flags[row]&prog.UFNopOrHalt != 0 {
			continue
		}
		if err := r.rename(row); err != nil {
			return n, err
		}
		n++
	}
	for r.n > 0 {
		r.retire()
	}
	return n, nil
}

func (r *replayer) rename(row uint32) error {
	u := r.u
	in := u.Inst[row]
	cls := [2]isa.RegClass{u.Src1Class[row], u.Src2Class[row]}
	logs := [2]uint8{in.Rs1, in.Rs2}
	// A stolen source is migrated by a move micro-op before the
	// instruction renames (reuse scheme only).
	for i := range cls {
		c := cls[i]
		if c == isa.NoReg || r.reuse[c] == nil || !r.reuse[c].PeekSrc(logs[i]).Stolen {
			continue
		}
		for {
			rep, ok := r.reuse[c].RepairSteal(logs[i])
			if ok {
				e := r.push()
				e.class, e.dest = c, rep.Dest
				break
			}
			if err := r.retireForRegs(c); err != nil {
				return err
			}
		}
	}
	if r.n == len(r.win) {
		r.retire()
	}
	var src [2]srcTag
	nsrc := 0
	for i := range cls {
		if cls[i] != isa.NoReg {
			src[nsrc] = srcTag{cls[i], r.ren[cls[i]].PeekSrc(logs[i]).Tag}
			nsrc++
		}
	}
	r.noteSlots(src[:nsrc])
	dc := u.DestClass[row]
	var dest rename.DestResult
	if dc != isa.NoReg {
		pc := prog.TextBase + uint64(row)*isa.InstBytes
		for {
			res, ok := r.ren[dc].RenameDest(pc, u.DestLog[row], u.Cand[row][:u.NCand[row]])
			if ok {
				dest = res
				break
			}
			r.abandonSlots(src[:nsrc])
			if err := r.retireForRegs(dc); err != nil {
				return err
			}
			r.noteSlots(src[:nsrc])
		}
		for i := range cls {
			if cls[i] != isa.NoReg && cls[i] != dc {
				r.ren[cls[i]].MarkSrcRead(logs[i])
			}
		}
	} else {
		// Mark each distinct source once, as dispatch does.
		var first [2]uint8
		have := false
		for i := range cls {
			if cls[i] == isa.NoReg {
				continue
			}
			key := [2]uint8{uint8(cls[i]), logs[i]}
			if have && key == first {
				continue
			}
			first, have = key, true
			r.ren[cls[i]].MarkSrcRead(logs[i])
		}
	}
	e := r.push()
	e.class, e.dest, e.src, e.nsrc = dc, dest, src, nsrc
	if u.Flags[row]&prog.UFBranch != 0 {
		// Checkpoint after renaming the branch itself, as dispatch does.
		e.branch = true
		e.ckpt = [2]rename.Checkpoint{r.ren[0].Checkpoint(), r.ren[1].Checkpoint()}
		r.branches = append(r.branches, e.seq)
	}
	return nil
}

// noteSlots tells the early renamers that the next instruction holds these
// sources; abandonSlots withdraws them when its rename stalls.
func (r *replayer) noteSlots(src []srcTag) {
	if r.early[0] == nil {
		return
	}
	r.early[0].NoteRenamed(r.seq)
	r.early[1].NoteRenamed(r.seq)
	for _, s := range src {
		r.early[s.class].NoteSrcSlot(s.tag)
	}
}

func (r *replayer) abandonSlots(src []srcTag) {
	if r.early[0] == nil {
		return
	}
	for _, s := range src {
		r.early[s.class].NoteSrcConsumed(s.tag)
	}
}

// retireForRegs frees registers by retiring the oldest instruction, as a
// rename stall waits for commit.
func (r *replayer) retireForRegs(c isa.RegClass) error {
	if r.n == 0 {
		return fmt.Errorf("no free %v register with an empty window", c)
	}
	r.retire()
	return nil
}

// push appends an instruction to the window, retiring the oldest first
// when the window is full.
func (r *replayer) push() *inflight {
	if r.n == len(r.win) {
		r.retire()
	}
	e := &r.win[(r.head+r.n)%len(r.win)]
	*e = inflight{seq: r.seq, class: isa.NoReg}
	r.n++
	r.seq++
	return e
}

// retire takes the oldest instruction through execute, writeback and
// commit as the renamers see them: its sources are consumed, its value is
// written, its destination commits, a branch's checkpoints are released,
// and the early renamers learn the new speculation boundary.
func (r *replayer) retire() {
	e := &r.win[r.head]
	if r.early[0] != nil {
		for _, s := range e.src[:e.nsrc] {
			r.early[s.class].NoteSrcConsumed(s.tag)
		}
	}
	if e.class != isa.NoReg {
		r.rf[e.class].Write(e.dest.Tag.Reg, e.dest.Tag.Ver, 0)
		if r.early[e.class] != nil {
			r.early[e.class].NoteWriteback(e.dest.Tag)
		}
		r.ren[e.class].Commit(e.dest)
	}
	if e.branch {
		r.ren[0].ReleaseCheckpoint(e.ckpt[0])
		r.ren[1].ReleaseCheckpoint(e.ckpt[1])
		r.branches = r.branches[1:]
	}
	r.head = (r.head + 1) % len(r.win)
	r.n--
	if r.early[0] != nil {
		boundary := r.seq
		if len(r.branches) > 0 {
			boundary = r.branches[0]
		}
		if boundary != r.boundary {
			r.boundary = boundary
			r.early[0].NoteSpecBoundary(boundary)
			r.early[1].NoteSpecBoundary(boundary)
		}
	}
}
