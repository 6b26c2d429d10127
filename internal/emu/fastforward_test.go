package emu

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/prog"
	"repro/internal/workloads"
)

func assembleWorkload(t testing.TB, name string, scale int) *prog.Program {
	t.Helper()
	w, ok := workloads.ByName(name, scale)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	p, err := asm.Assemble(w.Source)
	if err != nil {
		t.Fatalf("assemble %s: %v", name, err)
	}
	return p
}

// TestStepNMatchesStep runs every workload twice — once with the per-
// instruction Step, once with batched StepN in awkward chunk sizes — and
// demands bit-identical architectural state at every chunk boundary and at
// the end. This is the contract that makes StepN usable as a fast-forwarder.
func TestStepNMatchesStep(t *testing.T) {
	chunks := []uint64{1, 7, 64, 1000, 1 << 20}
	for _, w := range workloads.Small() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			p := assembleWorkload(t, w.Name, 1)
			ref := New(p)
			fast := New(p)
			for !ref.Halted() {
				n := chunks[int(ref.InstCount())%len(chunks)]
				var stepped uint64
				for ; stepped < n && !ref.Halted(); stepped++ {
					if _, err := ref.Step(); err != nil {
						t.Fatalf("Step at inst %d: %v", ref.InstCount(), err)
					}
				}
				got, err := fast.StepN(n)
				if err != nil {
					t.Fatalf("StepN at inst %d: %v", fast.InstCount(), err)
				}
				if got != stepped {
					t.Fatalf("StepN executed %d insts, Step executed %d", got, stepped)
				}
				if a, b := ref.Snapshot(), fast.Snapshot(); !a.Equal(b) {
					t.Fatalf("state diverged at inst %d:\n ref: %v\nfast: %v",
						ref.InstCount(), a, b)
				}
			}
			if !fast.Halted() {
				t.Fatalf("StepN machine not halted when Step machine is")
			}
			if ref.X[workloads.CheckReg] != w.Want {
				t.Fatalf("checksum x%d = %#x, want %#x",
					workloads.CheckReg, ref.X[workloads.CheckReg], w.Want)
			}
		})
	}
}

// TestStepNSteadyStateZeroAllocs pins the batch loop's allocation count at
// zero once the pages it touches exist. The loop keeps three pages that
// share a page-table slot in play, so every access misses the table and
// goes through the map, and it writes and reads XZR.
func TestStepNSteadyStateZeroAllocs(t *testing.T) {
	p, err := asm.Assemble(`
		movi x1, #0x100000   ; pages 256, 320 and 384: one table slot
		movi x2, #0x140000
		movi x3, #0x180000
		movi x4, #1
	loop:
		str  x4, [x1, #8]
		ldr  x5, [x2, #8]
		str  x5, [x3, #16]
		ldr  xzr, [x1, #8]
		addi xzr, x4, #1
		add  x4, x4, x5
		bne  x4, xzr, loop
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	s := New(p)
	if _, err := s.StepN(10_000); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := s.StepN(1000); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("StepN allocated %.1f times per 1000-instruction chunk, want 0", allocs)
	}
	if s.Halted() || s.X[4] != 1 {
		t.Fatalf("loop left halted=%v x4=%d, want a running loop with x4=1", s.Halted(), s.X[4])
	}
}

// TestStepNStopsAtHalt checks the partial-batch contract: a batch that
// crosses the halt instruction stops there and reports the true count.
func TestStepNStopsAtHalt(t *testing.T) {
	p, err := asm.Assemble(`
		movi x1, #1
		movi x2, #2
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	s := New(p)
	n, err := s.StepN(100)
	if err != nil {
		t.Fatalf("StepN: %v", err)
	}
	if n != 3 || !s.Halted() || s.InstCount() != 3 {
		t.Fatalf("n=%d halted=%v count=%d, want 3/true/3", n, s.Halted(), s.InstCount())
	}
	if n, err = s.StepN(0); n != 0 || err != nil {
		t.Fatalf("StepN(0) after halt = %d, %v", n, err)
	}
	if _, err = s.StepN(1); err == nil {
		t.Fatal("StepN(1) after halt should crash")
	}
}

// TestStepNCrashStateMatchesStep checks that a faulting batch leaves PC and
// the instruction count exactly where per-instruction stepping leaves them.
func TestStepNCrashStateMatchesStep(t *testing.T) {
	src := `
		movi x1, #3          ; misaligned address
		ldr  x2, [x1, #0]
		halt
	`
	pa, _ := asm.Assemble(src)
	pb, _ := asm.Assemble(src)
	ref := New(pa)
	fast := New(pb)
	var refErr error
	for refErr == nil {
		_, refErr = ref.Step()
	}
	_, fastErr := fast.StepN(100)
	if fastErr == nil {
		t.Fatal("StepN should fault on misaligned load")
	}
	if ref.PC != fast.PC || ref.InstCount() != fast.InstCount() {
		t.Fatalf("fault state: Step pc=%#x count=%d, StepN pc=%#x count=%d",
			ref.PC, ref.InstCount(), fast.PC, fast.InstCount())
	}
}

// TestSnapshotRestoreRoundTrip pauses a workload mid-flight, snapshots,
// runs it to completion, restores, and re-runs — both completions must
// produce identical final snapshots.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	p := assembleWorkload(t, "dgemm", 1)
	s := New(p)
	if _, err := s.StepN(500); err != nil {
		t.Fatal(err)
	}
	mid := s.Snapshot()
	if mid.InstCount != 500 {
		t.Fatalf("snapshot at inst %d, want 500", mid.InstCount)
	}

	if _, err := s.RunToHalt(10_000_000, nil); err != nil {
		t.Fatal(err)
	}
	first := s.Snapshot()

	s.Restore(mid)
	if got := s.Snapshot(); !got.Equal(mid) {
		t.Fatalf("restore not faithful:\nwant %v\n got %v", mid, got)
	}
	if _, err := s.RunToHalt(10_000_000, nil); err != nil {
		t.Fatal(err)
	}
	if second := s.Snapshot(); !second.Equal(first) {
		t.Fatalf("replay from snapshot diverged:\nfirst  %v\nsecond %v", first, second)
	}

	// A machine built from scratch around the snapshot behaves the same.
	fresh := NewFromSnapshot(p, mid)
	if _, err := fresh.RunToHalt(10_000_000, nil); err != nil {
		t.Fatal(err)
	}
	if third := fresh.Snapshot(); !third.Equal(first) {
		t.Fatalf("NewFromSnapshot replay diverged:\nfirst %v\n third %v", first, third)
	}
}

// TestSnapshotIsolation verifies the snapshot memory is decoupled from the
// live machine in both directions.
func TestSnapshotIsolation(t *testing.T) {
	p, err := asm.Assemble(`
		movi x1, #0x100000
		movi x2, #0xAB
		str  x2, [x1, #0]
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	s := New(p)
	if _, err := s.StepN(3); err != nil {
		t.Fatal(err)
	}
	sn := s.Snapshot()
	s.Mem.StoreWord64(0x100000, 0xFF)
	if sn.Mem.LoadWord64(0x100000) != 0xAB {
		t.Fatal("machine write leaked into snapshot")
	}
	sn.Mem.StoreWord64(0x100000, 0x77)
	if s.Mem.LoadWord64(0x100000) != 0xFF {
		t.Fatal("snapshot write leaked into machine")
	}
}

// BenchmarkStepN vs BenchmarkStep measures the batched interpreter's win on
// a real workload; the ratio is the fast-forward speedup inside the emulator.
func benchRun(b *testing.B, step func(s *State) bool) {
	p := assembleWorkload(b, "poly_horner", 2)
	b.ReportAllocs()
	b.ResetTimer()
	var insts uint64
	for i := 0; i < b.N; i++ {
		s := New(p)
		for step(s) {
		}
		insts += s.InstCount()
	}
	b.StopTimer()
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "Minst/s")
}

func BenchmarkStep(b *testing.B) {
	benchRun(b, func(s *State) bool {
		_, err := s.Step()
		if err != nil {
			b.Fatal(err)
		}
		return !s.Halted()
	})
}

func BenchmarkStepN(b *testing.B) {
	benchRun(b, func(s *State) bool {
		if _, err := s.StepN(1 << 16); err != nil {
			b.Fatal(err)
		}
		return !s.Halted()
	})
}
