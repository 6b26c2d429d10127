package emu

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/prog"
)

// fuzzBudget bounds every run in FuzzInterpretersAgree. It is small enough
// to keep one input fast and larger than commitBatchRows, so a long-running
// input crosses at least one batch flush.
const fuzzBudget = 10_000

// fuzzProgram decodes data as a sequence of isa.EncodedBytes records,
// skipping any that do not decode to a valid instruction, appends HALT, and
// lays the result out from prog.TextBase with no data image.
func fuzzProgram(t *testing.T, data []byte) *prog.Program {
	t.Helper()
	var insts []isa.Inst
	for ; len(data) >= isa.EncodedBytes; data = data[isa.EncodedBytes:] {
		if in, err := isa.Decode(data[:isa.EncodedBytes]); err == nil {
			insts = append(insts, in)
		}
	}
	insts = append(insts, isa.Inst{Op: isa.HALT})
	p, err := prog.New(insts, nil, nil)
	if err != nil {
		t.Fatalf("prog.New: %v", err)
	}
	return p
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// FuzzInterpretersAgree is the differential test for the interpreters: the
// single-stepping oracle (Step via RunToHalt), the batch loop driven as
// StepN in uneven chunks, and the same loop driven as RunToHaltBatch with a
// recording sink must agree on the final architectural state, the
// instruction count, the error text and, where a stream exists, the
// committed PC stream. Random instruction words reach the crash paths
// (misaligned access, fetch outside text), the budget guard and every op's
// edge cases that the workloads never touch.
func FuzzInterpretersAgree(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p := fuzzProgram(t, data)

		ref := New(p)
		var pcs []uint64
		refN, refErr := ref.RunToHalt(fuzzBudget, func(c Commit) { pcs = append(pcs, c.PC) })

		batched := New(p)
		var sink recordingSink
		batchN, batchErr := batched.RunToHaltBatch(fuzzBudget, &sink)
		if batchN != refN || errText(batchErr) != errText(refErr) {
			t.Fatalf("RunToHaltBatch = (%d, %s), RunToHalt = (%d, %s)",
				batchN, errText(batchErr), refN, errText(refErr))
		}
		if len(sink.rows) != len(pcs) {
			t.Fatalf("sink saw %d rows, Step committed %d", len(sink.rows), len(pcs))
		}
		for i, row := range sink.rows {
			if got := prog.TextBase + uint64(row)*isa.InstBytes; got != pcs[i] {
				t.Fatalf("inst %d: row pc %#x, Step committed pc %#x", i, got, pcs[i])
			}
		}
		if a, b := ref.Snapshot(), batched.Snapshot(); !a.Equal(b) {
			t.Fatalf("RunToHaltBatch state diverged:\n ref: %v\nbatch: %v", a, b)
		}

		// StepN has no budget error: running out of budget is a short,
		// error-free return, so only crash texts are compared.
		chunks := []uint64{1, 3, 7, 64, 1000}
		stepped := New(p)
		var stepErr error
		for i := 0; stepErr == nil && !stepped.Halted() && stepped.InstCount() < fuzzBudget; i++ {
			n := chunks[i%len(chunks)]
			if left := fuzzBudget - stepped.InstCount(); n > left {
				n = left
			}
			_, stepErr = stepped.StepN(n)
		}
		if stepped.InstCount() != refN {
			t.Fatalf("StepN executed %d, RunToHalt %d", stepped.InstCount(), refN)
		}
		var wantStepErr error
		if _, crashed := refErr.(*CrashError); crashed {
			wantStepErr = refErr
		}
		if errText(stepErr) != errText(wantStepErr) {
			t.Fatalf("StepN error %s, want %s", errText(stepErr), errText(wantStepErr))
		}
		if a, b := ref.Snapshot(), stepped.Snapshot(); !a.Equal(b) {
			t.Fatalf("StepN state diverged:\n ref: %v\nstepN: %v", a, b)
		}
	})
}
