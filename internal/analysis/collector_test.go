package analysis

import (
	"repro/internal/emu"
	"repro/internal/isa"
)

// This file is the reference oracle for Stream: a per-commit collector that
// keeps one record per dynamic definition and classifies everything in
// Finalize. It costs O(trace) memory, which is why it lives only in tests;
// TestStreamMatchesOracle* pin exact Report equality against it.

// def records one value definition (a write to a logical register) and its
// consumption history.
type def struct {
	id        int64 // index into the defs slice; -1 = none
	consumers int
	// soleConsumerSeq is the dynamic seq of the only consumer (valid when
	// consumers == 1).
	soleConsumerSeq uint64
	// soleConsumerRedef reports that the sole consumer also redefined this
	// logical register.
	soleConsumerRedef bool
	// soleConsumerDefID is the def created by the sole consumer's own
	// destination (-1 when the consumer has no destination of this class),
	// used to build reuse chains for Figure 3.
	soleConsumerDefID int64
}

// Collector consumes a committed-instruction stream over emu.Step. It is
// the reference oracle: simple, memory-unbounded, and the equality target
// for the streaming collector.
type Collector struct {
	// live[class][reg] is the index of the currently-live def (-1 none).
	live [2][32]int64
	defs []def

	totalInsts uint64
	destInsts  uint64
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	c := &Collector{}
	for cl := range c.live {
		for r := range c.live[cl] {
			c.live[cl][r] = -1
		}
	}
	return c
}

// Observe processes one committed instruction.
func (c *Collector) Observe(cm emu.Commit) {
	c.totalInsts++
	in := cm.Inst
	destClass, destLog := in.DestReg()

	// Record consumption of each (deduplicated) register source.
	var srcs [2]isa.SrcOperand
	ss := in.SrcRegs(srcs[:0])
	for i, s := range ss {
		if i == 1 && ss[0] == s {
			continue // same register read twice: one consumer
		}
		id := c.live[s.Class][s.Reg]
		if id < 0 {
			continue // consuming the initial (pre-trace) value
		}
		d := &c.defs[id]
		d.consumers++
		if d.consumers == 1 {
			d.soleConsumerSeq = cm.Seq
			d.soleConsumerRedef = destClass == s.Class && destLog == s.Reg
			d.soleConsumerDefID = -1 // patched below if this inst defines
		}
	}

	if destClass == isa.NoReg {
		return
	}
	c.destInsts++
	id := int64(len(c.defs))
	c.defs = append(c.defs, def{id: id})
	// Patch soleConsumerDefID for sources this instruction solely consumes
	// so far (chain linking needs the consumer's own def, same class only).
	for i, s := range ss {
		if i == 1 && ss[0] == s {
			continue
		}
		if s.Class != destClass {
			continue
		}
		prev := c.live[s.Class][s.Reg]
		if prev >= 0 {
			d := &c.defs[prev]
			if d.consumers == 1 && d.soleConsumerSeq == cm.Seq {
				d.soleConsumerDefID = id
			}
		}
	}
	c.live[destClass][destLog] = id
}

// Finalize computes the report. The collector can keep observing afterwards,
// but live (unredefined) values are treated as closed at this point.
func (c *Collector) Finalize() Report {
	r := Report{TotalInsts: c.totalInsts, DestInsts: c.destInsts}
	r.TotalDefs = uint64(len(c.defs))

	// Figure 2 histogram and Figure 1 classification.
	soleOf := make(map[uint64][]int64) // consumer seq -> defs solely consumed
	for i := range c.defs {
		d := &c.defs[i]
		k := d.consumers
		if k > 6 {
			k = 6
		}
		r.ConsumerHist[k]++
		if d.consumers == 1 {
			soleOf[d.soleConsumerSeq] = append(soleOf[d.soleConsumerSeq], d.id)
		}
	}
	// Figure 1: count each consuming instruction once; prefer the
	// redefining classification when both apply.
	for _, ids := range soleOf {
		redef := false
		hasDest := false
		for _, id := range ids {
			d := &c.defs[id]
			if d.soleConsumerRedef {
				redef = true
			}
			if d.soleConsumerDefID >= 0 || d.soleConsumerRedef {
				hasDest = true
			}
		}
		if !hasDest {
			continue // sole consumer was a store/branch: no destination
		}
		if redef {
			r.SingleUseRedef++
		} else {
			r.SingleUseOther++
		}
	}

	// Figure 3: ideal reuse chains. depth[d] = chain position of def d's
	// register assignment (0 = fresh allocation). Process defs in creation
	// order; a def's chain parent always precedes it.
	depth := make([]int32, len(c.defs))
	for i := range c.defs {
		d := &c.defs[i]
		if d.consumers != 1 || d.soleConsumerDefID < 0 {
			continue
		}
		child := d.soleConsumerDefID
		if depth[child] != 0 {
			continue // already reusing another source's register
		}
		nd := depth[d.id] + 1
		depth[child] = nd
		switch {
		case nd <= 3:
			r.ReuseAtDepth[nd]++
		default:
			r.ReuseDeeper++
		}
	}
	return r
}

// Analyze runs a program to completion under the single-stepping emulator
// and collects the reference report.
func Analyze(s *emu.State, maxInsts uint64) (Report, error) {
	c := NewCollector()
	_, err := s.RunToHalt(maxInsts, c.Observe)
	if err != nil {
		return Report{}, err
	}
	return c.Finalize(), nil
}
