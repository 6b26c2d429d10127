package emu

import "fmt"

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
// calls: one 16 KB buffer per RunToHaltBatch call, so the per-commit cost is
// one store and the interface call is amortized over 4096 commits.
const commitBatchRows = 4096

// RunToHaltBatch executes until HALT, failing if the program exceeds max
// instructions, and streams every committed instruction to sink as batches
// of micro-op table rows. It is the batched commit-sink analogue of
// RunToHalt(max, fn) and runs the same interpreter loop as StepN, with the
// per-commit row store switched on — architecturally it is bit-identical to
// RunToHalt over Step (pinned by TestRunToHaltBatchMatchesStep and
// FuzzInterpretersAgree).
//
// Like RunToHalt, the faulting instruction of a crash is not reported to
// the sink, but every instruction committed before it is (the pending
// partial batch is flushed before the error returns). The HALT instruction
// itself commits and is streamed, matching Step.
//
// Like StepN, the loop is kept allocation-free per instruction by
// construction (pre-decoded columns, one batch buffer per call) rather than
// carrying //repro:hotpath: the once-per-run sync closure and the
// crash-path fmt formatting are deliberate, and the dynamic gates
// (TestStreamSteadyStateZeroAllocs, the benchjson -allocs ceilings) pin the
// property end to end.
func (s *State) RunToHaltBatch(max uint64, sink CommitSink) (uint64, error) {
	n, err := s.run(max, sink)
	if err == nil && !s.halted {
		err = fmt.Errorf("emu: program did not halt within %d instructions", max)
	}
	return n, err
}
