package emu

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/workloads"
)

// recordingSink captures the full batched commit stream for comparison.
type recordingSink struct {
	seqs []uint64 // startSeq of every batch
	rows []uint32 // concatenated rows
}

func (r *recordingSink) CommitBatch(startSeq uint64, rows []uint32) {
	r.seqs = append(r.seqs, startSeq)
	r.rows = append(r.rows, rows...)
}

// TestRunToHaltBatchMatchesStep runs every workload twice — once with the
// per-instruction Step collecting commit records, once with RunToHaltBatch
// collecting table rows — and demands the same instruction stream (every
// row's pc must match the Step commit's pc, including the final HALT),
// contiguous batch seqs, and bit-identical final architectural state.
func TestRunToHaltBatchMatchesStep(t *testing.T) {
	for _, w := range workloads.Small() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			p := assembleWorkload(t, w.Name, 1)

			ref := New(p)
			var pcs []uint64
			if _, err := ref.RunToHalt(1<<32, func(c Commit) {
				pcs = append(pcs, c.PC)
			}); err != nil {
				t.Fatalf("RunToHalt: %v", err)
			}

			batched := New(p)
			var sink recordingSink
			n, err := batched.RunToHaltBatch(1<<32, &sink)
			if err != nil {
				t.Fatalf("RunToHaltBatch: %v", err)
			}

			if n != uint64(len(pcs)) {
				t.Fatalf("executed %d insts, Step executed %d", n, len(pcs))
			}
			if uint64(len(sink.rows)) != n {
				t.Fatalf("sink saw %d rows, want %d", len(sink.rows), n)
			}
			for i, row := range sink.rows {
				if got := prog.TextBase + uint64(row)*isa.InstBytes; got != pcs[i] {
					t.Fatalf("inst %d: row %d = pc %#x, Step committed pc %#x", i, row, got, pcs[i])
				}
			}
			// Batches must partition [0, n) contiguously.
			var want uint64
			for _, seq := range sink.seqs {
				if seq != want {
					t.Fatalf("batch startSeq %d, want %d", seq, want)
				}
				if seq+commitBatchRows <= n {
					want = seq + commitBatchRows
				} else {
					want = n
				}
			}
			if a, b := ref.Snapshot(), batched.Snapshot(); !a.Equal(b) {
				t.Fatalf("state diverged:\n ref: %v\nbatched: %v", a, b)
			}
			if !batched.Halted() {
				t.Fatal("batched machine not halted")
			}
		})
	}
}

// TestRunToHaltBatchRunaway checks the max-instruction guard: the stream
// must contain exactly max rows and the error must match RunToHalt's.
func TestRunToHaltBatchRunaway(t *testing.T) {
	p, err := asm.Assemble("loop: b loop\n")
	if err != nil {
		t.Fatal(err)
	}
	var sink recordingSink
	n, err := New(p).RunToHaltBatch(10_000, &sink)
	if err == nil || !strings.Contains(err.Error(), "did not halt within 10000") {
		t.Fatalf("err = %v, want did-not-halt", err)
	}
	if n != 10_000 || uint64(len(sink.rows)) != 10_000 {
		t.Fatalf("executed %d, sank %d rows, want 10000 each", n, len(sink.rows))
	}
}

// TestRunToHaltBatchCrash checks that a crash flushes the committed prefix
// (but not the faulting instruction) and leaves state exactly as Step does.
func TestRunToHaltBatchCrash(t *testing.T) {
	src := `
	movi x1, #8
	movi x2, #3
	ldr  x3, [x2, #0]   ; misaligned: crashes
	halt
`
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}

	ref := New(p)
	var refN int
	_, refErr := ref.Run(1<<20, func(Commit) { refN++ })
	if refErr == nil {
		t.Fatal("reference run did not crash")
	}

	var sink recordingSink
	n, err := New(p).RunToHaltBatch(1<<20, &sink)
	if err == nil {
		t.Fatal("batched run did not crash")
	}
	if err.Error() != refErr.Error() {
		t.Fatalf("crash error %q, want %q", err, refErr)
	}
	if int(n) != refN || len(sink.rows) != refN {
		t.Fatalf("executed %d, sank %d rows, want %d (the pre-fault prefix)", n, len(sink.rows), refN)
	}
}

// TestRunToHaltBatchAfterHalt mirrors Step's step-after-halt contract.
func TestRunToHaltBatchAfterHalt(t *testing.T) {
	p, err := asm.Assemble("halt\n")
	if err != nil {
		t.Fatal(err)
	}
	s := New(p)
	var sink recordingSink
	if _, err := s.RunToHaltBatch(1<<20, &sink); err != nil {
		t.Fatal(err)
	}
	if n, err := s.RunToHaltBatch(0, &sink); n != 0 || err != nil {
		t.Fatalf("RunToHaltBatch(0) after halt = (%d, %v), want (0, nil)", n, err)
	}
	if _, err := s.RunToHaltBatch(1, &sink); err == nil {
		t.Fatal("RunToHaltBatch(1) after halt succeeded, want crash")
	}
}

// TestRunToHaltBatchFlushBoundary places the end of the run — HALT, which
// commits, a misaligned load, which does not, or the end of the budget —
// so the committed stream ends exactly on a commitBatchRows boundary and
// one row past it, and puts the loop's run cuts (taken branches, a jump
// out of the text or to a misaligned pc, a run longer than a batch) on and
// next to that boundary. The batches must still partition the stream with
// no empty or missing batch, and the result must match Step.
func TestRunToHaltBatchFlushBoundary(t *testing.T) {
	nops := func(n int) string { return strings.Repeat("\tnop\n", n) }
	cases := []struct {
		name      string
		committed int  // rows the sink must see
		crash     bool // end in an error: a crash, or the budget
		seqs      []uint64
		// src, when set, replaces the generated program: one movi, nops,
		// then a misaligned load when crash is set, and HALT.
		src    string
		budget uint64 // 0 means 1<<20
	}{
		{name: "halt-on-boundary", committed: commitBatchRows, seqs: []uint64{0}},
		{name: "halt-past-boundary", committed: commitBatchRows + 1, seqs: []uint64{0, commitBatchRows}},
		{name: "crash-on-boundary", committed: commitBatchRows, crash: true, seqs: []uint64{0}},
		{name: "crash-past-boundary", committed: commitBatchRows + 1, crash: true, seqs: []uint64{0, commitBatchRows}},

		// A taken branch as the batch's last row whose target cannot be
		// fetched: below the text, or misaligned inside it.
		{name: "jump-outside-text-on-boundary", committed: commitBatchRows, crash: true, seqs: []uint64{0},
			src: "\tmovi x1, #1\n" + nops(commitBatchRows-2) + "\tb #16\n\thalt\n"},
		{name: "jump-misaligned-past-boundary", committed: commitBatchRows + 1, crash: true, seqs: []uint64{0, commitBatchRows},
			src: "\tmovi x1, #0x1006\n" + nops(commitBatchRows-1) + "\tbr x1\n\thalt\n"},
		// A misaligned load as the first row of a run, on the loop's
		// second pass; its first pass straddles the boundary.
		{name: "misaligned-load-first-in-run", committed: commitBatchRows + 1, crash: true, seqs: []uint64{0, commitBatchRows},
			src: "\tmovi x2, #0x100000\n" + nops(commitBatchRows-4) +
				"\tb loop\n\tnop\nloop:\tldr x3, [x2, #0]\n\taddi x2, x2, #4\n\tb loop\n\thalt\n"},
		// A misaligned load as the last row before a branch, on the loop's
		// second pass; the first pass ends a run longer than a batch.
		{name: "misaligned-load-before-branch", committed: commitBatchRows + 2, crash: true, seqs: []uint64{0, commitBatchRows},
			src: "\tmovi x2, #0x100004\n" + nops(commitBatchRows-3) +
				"loop:\taddi x2, x2, #4\n\tldr x3, [x2, #0]\n\tbeq xzr, xzr, loop\n\thalt\n"},
		// The budget ends one row into a run, and exactly on a branch;
		// runs of three and five rows straddle the boundary on the way.
		{name: "budget-mid-run", committed: 3*1400 + 1, crash: true, seqs: []uint64{0, commitBatchRows},
			src: "loop:\tnop\n\tnop\n\tb loop\n", budget: 3*1400 + 1},
		{name: "budget-on-branch", committed: 5 * 820, crash: true, seqs: []uint64{0, commitBatchRows},
			src: "loop:\taddi x1, x1, #1\n" + nops(3) + "\tbne x1, xzr, loop\n", budget: 5 * 820},
		// HALT as the first row of a run, after a branch that ends the
		// first batch.
		{name: "halt-first-in-run", committed: commitBatchRows + 1, seqs: []uint64{0, commitBatchRows},
			src: nops(commitBatchRows-1) + "\tb done\n\tnop\ndone:\thalt\n"},
		// A taken branch exactly on the boundary, then a short run.
		{name: "branch-on-boundary", committed: commitBatchRows + 2, seqs: []uint64{0, commitBatchRows},
			src: "\tmovi x1, #1\n" + nops(commitBatchRows-2) + "\tb next\n\thalt\nnext:\tnop\n\thalt\n"},
		// One straight-line run after a jump, longer than a batch.
		{name: "long-run-after-jump", committed: 2*commitBatchRows + 3, seqs: []uint64{0, commitBatchRows, 2 * commitBatchRows},
			src: "\tb start\n\thalt\nstart:\n" + nops(2*commitBatchRows+1) + "\thalt\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := tc.src
			if src == "" {
				// One movi sets up the misaligned base; HALT commits as
				// the last row, the faulting load does not.
				n := tc.committed - 1
				if !tc.crash {
					n--
				}
				src = "\tmovi x2, #3\n" + nops(n)
				if tc.crash {
					src += "\tldr x3, [x2, #0]\n"
				}
				src += "\thalt\n"
			}
			budget := tc.budget
			if budget == 0 {
				budget = 1 << 20
			}
			p, err := asm.Assemble(src)
			if err != nil {
				t.Fatal(err)
			}

			ref := New(p)
			var pcs []uint64
			_, refErr := ref.RunToHalt(budget, func(c Commit) { pcs = append(pcs, c.PC) })
			if (refErr != nil) != tc.crash || len(pcs) != tc.committed {
				t.Fatalf("reference: %d commits, err %v", len(pcs), refErr)
			}

			batched := New(p)
			var sink recordingSink
			n, err := batched.RunToHaltBatch(budget, &sink)
			if errText(err) != errText(refErr) {
				t.Fatalf("err %s, want %s", errText(err), errText(refErr))
			}
			if int(n) != tc.committed || len(sink.rows) != tc.committed {
				t.Fatalf("executed %d, sank %d rows, want %d", n, len(sink.rows), tc.committed)
			}
			for i, row := range sink.rows {
				if got := prog.TextBase + uint64(row)*isa.InstBytes; got != pcs[i] {
					t.Fatalf("inst %d: row pc %#x, Step committed pc %#x", i, got, pcs[i])
				}
			}
			if len(sink.seqs) != len(tc.seqs) {
				t.Fatalf("batch startSeqs %v, want %v", sink.seqs, tc.seqs)
			}
			for i := range tc.seqs {
				if sink.seqs[i] != tc.seqs[i] {
					t.Fatalf("batch startSeqs %v, want %v", sink.seqs, tc.seqs)
				}
			}
			if a, b := ref.Snapshot(), batched.Snapshot(); !a.Equal(b) {
				t.Fatalf("state diverged:\n ref: %v\nbatched: %v", a, b)
			}
		})
	}
}
