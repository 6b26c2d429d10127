package emu

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/prog"
)

// CommitSink consumes the committed-instruction stream in batches of
// micro-op table rows. rows[k] is the UOpTable index of dynamic instruction
// startSeq+k; consumers read the pre-decoded operand columns straight off
// the table (the same one the pipeline and the fast-forward interpreter
// decode from), so a sink never re-derives operand metadata per commit.
// The rows slice is reused between calls and must not be retained.
type CommitSink interface {
	CommitBatch(startSeq uint64, rows []uint32)
}

// commitBatchRows is the number of committed rows buffered between sink
// calls: one 16 KB buffer per RunToHaltBatch call, so the interface call is
// amortized over 4096 commits.
const commitBatchRows = 4096

// recorder buffers the committed rows of one RunToHaltBatch call for its
// sink. The batch loop hands it whole straight-line runs, never single
// instructions: a run's rows are consecutive table indices, so recording
// one is a tight fill of the buffer, and the loop's per-instruction path
// stays free of sink state.
type recorder struct {
	sink  CommitSink
	fill  int    // rows pending in buf
	seq   uint64 // commit seq of buf[0]
	first uint64 // pc of the current run's first instruction
	buf   *[commitBatchRows]uint32
}

// jump records the run that ends at the taken branch at pc, which
// commits, and starts the next run at target. It is the common case,
// inlined into the loop: a run that fits in the buffer is one bound check
// and a fill. It reports false, having recorded nothing, when the run does
// not fit; the loop then calls jumpSpill.
func (r *recorder) jump(pc, target uint64) bool {
	n := int((pc + isa.InstBytes - r.first) / isa.InstBytes)
	f := r.fill
	if n > len(r.buf)-f {
		return false
	}
	row := uint32((r.first - prog.TextBase) / isa.InstBytes)
	dst := r.buf[f : f+n]
	for k := range dst {
		dst[k] = row + uint32(k)
	}
	r.fill = f + n
	r.first = target
	return true
}

// jumpSpill is jump's out-of-line path for a run that overflows the buffer.
func (r *recorder) jumpSpill(pc, target uint64) {
	r.through(pc + isa.InstBytes)
	r.first = target
}

// through records the current run's rows from r.first up to, not
// including, the instruction at end, and hands the sink every batch they
// fill, so each batch but the last of a call holds exactly commitBatchRows
// rows. end == r.first records nothing, which covers a run whose first
// instruction faults or cannot be fetched (a jump outside the text or to a
// misaligned pc).
func (r *recorder) through(end uint64) {
	row := uint32((r.first - prog.TextBase) / isa.InstBytes)
	for n := int((end - r.first) / isa.InstBytes); n > 0; {
		if r.fill == len(r.buf) {
			r.flush()
		}
		dst := r.buf[r.fill:min(r.fill+n, len(r.buf))]
		for k := range dst {
			dst[k] = row + uint32(k)
		}
		r.fill += len(dst)
		row += uint32(len(dst))
		n -= len(dst)
	}
}

// flush hands the sink the pending rows, if any.
func (r *recorder) flush() {
	if r.fill == 0 {
		return
	}
	r.sink.CommitBatch(r.seq, r.buf[:r.fill])
	r.seq += uint64(r.fill)
	r.fill = 0
}

// RunToHaltBatch executes until HALT, failing if the program exceeds max
// instructions, and streams every committed instruction to sink as batches
// of micro-op table rows. It is the batched commit-sink analogue of
// RunToHalt(max, fn) and runs the same interpreter loop as StepN, with a
// recorder that takes the rows one straight-line run at a time —
// architecturally it is bit-identical to RunToHalt over Step (pinned by
// TestRunToHaltBatchMatchesStep and FuzzInterpretersAgree).
//
// Like RunToHalt, the faulting instruction of a crash is not reported to
// the sink, but every instruction committed before it is (the pending
// partial batch is flushed before the error returns). The HALT instruction
// itself commits and is streamed, matching Step.
//
// Like StepN, the loop is kept allocation-free per instruction by
// construction (pre-decoded columns, one batch buffer per call) rather than
// carrying //repro:hotpath: the crash-path fmt formatting is deliberate,
// and the dynamic gates (TestStreamSteadyStateZeroAllocs, the benchjson
// -allocs ceilings) pin the property end to end.
func (s *State) RunToHaltBatch(max uint64, sink CommitSink) (uint64, error) {
	rec := recorder{sink: sink, seq: s.count, buf: new([commitBatchRows]uint32)}
	n, err := s.run(max, &rec)
	if err == nil && !s.halted {
		err = fmt.Errorf("emu: program did not halt within %d instructions", max)
	}
	return n, err
}
