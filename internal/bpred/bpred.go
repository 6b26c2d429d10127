// Package bpred implements the front-end branch predictors of the simulated
// core: a gshare direction predictor, a branch target buffer, and a return
// address stack. All predictor state supports checkpoint/restore so the
// pipeline can recover from squashes (the RAS in particular must be repaired
// precisely or call-heavy code thrashes).
package bpred

import "repro/internal/isa"

// Config sizes the predictors; see pipeline.DefaultConfig for the paper's
// Table I values.
type Config struct {
	// GshareBits is log2 of the pattern-history-table size.
	GshareBits uint
	// BTBEntries is the number of branch-target-buffer entries
	// (direct-mapped, tagged).
	BTBEntries int
	// RASEntries is the return-address-stack depth.
	RASEntries int
}

// DefaultConfig mirrors Table I: 2K-entry BTB, 4K-entry gshare, 16-deep RAS.
func DefaultConfig() Config {
	return Config{GshareBits: 12, BTBEntries: 2048, RASEntries: 16}
}

// Predictor bundles direction, target and return-address prediction.
type Predictor struct {
	pht     []uint8 // gshare 2-bit saturating counters
	history uint64  // global history register
	btbTag  []uint64
	btbTgt  []uint64
	ras     []uint64
	rasTop  int // index of next push slot
	rasLen  int
}

// New creates a predictor with all counters weakly not-taken.
func New(cfg Config) *Predictor {
	if cfg.GshareBits == 0 || cfg.BTBEntries <= 0 || cfg.RASEntries <= 0 {
		panic("bpred: invalid config")
	}
	p := &Predictor{
		pht:    make([]uint8, 1<<cfg.GshareBits),
		btbTag: make([]uint64, cfg.BTBEntries),
		btbTgt: make([]uint64, cfg.BTBEntries),
		ras:    make([]uint64, cfg.RASEntries),
	}
	for i := range p.pht {
		p.pht[i] = 1 // weakly not taken
	}
	return p
}

func (p *Predictor) phtIndex(pc uint64) uint64 {
	return ((pc >> 2) ^ p.history) & uint64(len(p.pht)-1)
}

func (p *Predictor) btbIndex(pc uint64) int {
	return int((pc >> 2) % uint64(len(p.btbTag)))
}

// Prediction is the front end's guess for one branch.
type Prediction struct {
	Taken  bool   // predicted direction (always true for unconditional)
	Target uint64 // predicted target; 0 if unknown (BTB miss)
	// PhtIdx is the fetch-time pattern-history index; Resolve must train
	// the same entry.
	PhtIdx uint64
	// History snapshot for recovery at resolution time.
	Snapshot Snapshot
}

// Snapshot captures speculative predictor state for squash recovery.
type Snapshot struct {
	History uint64
	RASTop  int
	RASLen  int
	// RASSaved holds the entry about to be overwritten by a push (calls),
	// so restoring is exact for one level per checkpoint.
	RASSaved    uint64
	RASSavedIdx int
}

// Predict produces a prediction for the branch instruction at pc and updates
// speculative state (history, RAS). The caller stores the returned prediction
// with the instruction so Resolve/Restore can repair state later.
func (p *Predictor) Predict(pc uint64, in isa.Inst) Prediction {
	d := in.Op.Describe()
	if !d.Branch {
		panic("bpred: Predict on non-branch")
	}
	pred := Prediction{Snapshot: p.snapshot()}
	switch {
	case d.Link: // call: push return address
		pred.Taken = true
		pred.Target = uint64(in.Imm)
		pred.Snapshot.RASSavedIdx = p.rasTop
		pred.Snapshot.RASSaved = p.ras[p.rasTop]
		p.ras[p.rasTop] = pc + isa.InstBytes
		p.rasTop = (p.rasTop + 1) % len(p.ras)
		if p.rasLen < len(p.ras) {
			p.rasLen++
		}
	case d.Indirect: // return/indirect: pop RAS
		pred.Taken = true
		if p.rasLen > 0 {
			p.rasTop = (p.rasTop - 1 + len(p.ras)) % len(p.ras)
			p.rasLen--
			pred.Target = p.ras[p.rasTop]
		} else if t, ok := p.btbLookup(pc); ok {
			pred.Target = t
		}
	case d.Cond:
		pred.PhtIdx = p.phtIndex(pc)
		pred.Taken = p.pht[pred.PhtIdx] >= 2
		if pred.Taken {
			if t, ok := p.btbLookup(pc); ok {
				pred.Target = t
			} else {
				pred.Target = uint64(in.Imm) // direct target known at decode
			}
		} else {
			pred.Target = pc + isa.InstBytes
		}
		// Speculatively update history.
		p.history = (p.history << 1) | b2u(pred.Taken)
	default: // unconditional direct
		pred.Taken = true
		pred.Target = uint64(in.Imm)
	}
	return pred
}

func (p *Predictor) btbLookup(pc uint64) (uint64, bool) {
	i := p.btbIndex(pc)
	if p.btbTag[i] == pc && p.btbTgt[i] != 0 {
		return p.btbTgt[i], true
	}
	return 0, false
}

// Resolve trains the predictor with the actual outcome of a branch. pred
// must be the Prediction issued for this dynamic branch so the fetch-time
// pattern-history index trains the entry that produced the guess.
func (p *Predictor) Resolve(pc uint64, in isa.Inst, pred Prediction, taken bool, target uint64) {
	d := in.Op.Describe()
	if d.Cond {
		if ctr := &p.pht[pred.PhtIdx]; taken && *ctr < 3 {
			*ctr++
		} else if !taken && *ctr > 0 {
			*ctr--
		}
	}
	if taken && (d.Cond || d.Indirect) {
		i := p.btbIndex(pc)
		p.btbTag[i] = pc
		p.btbTgt[i] = target
	}
}

func (p *Predictor) snapshot() Snapshot {
	return Snapshot{History: p.history, RASTop: p.rasTop, RASLen: p.rasLen, RASSavedIdx: -1}
}

// Restore rewinds speculative state to a snapshot taken at Predict time,
// optionally forcing the resolved direction of that branch into the history.
func (p *Predictor) Restore(s Snapshot, wasCond, actualTaken bool) {
	p.history = s.History
	p.rasTop = s.RASTop
	p.rasLen = s.RASLen
	if s.RASSavedIdx >= 0 {
		p.ras[s.RASSavedIdx] = s.RASSaved
	}
	if wasCond {
		p.history = (p.history << 1) | b2u(actualTaken)
	}
}

// PushCallRestore replays a call's RAS push after a Restore when the call
// itself survives the squash (it was the mispredicted instruction).
func (p *Predictor) PushCallRestore(returnPC uint64) {
	p.ras[p.rasTop] = returnPC
	p.rasTop = (p.rasTop + 1) % len(p.ras)
	if p.rasLen < len(p.ras) {
		p.rasLen++
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
