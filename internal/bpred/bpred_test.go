package bpred

import (
	"testing"

	"repro/internal/isa"
)

func condBranch(target int64) isa.Inst {
	return isa.Inst{Op: isa.BNE, Rs1: 1, Rs2: 2, Imm: target}
}

func TestGshareLearnsLoop(t *testing.T) {
	p := New(DefaultConfig())
	pc := uint64(0x1000)
	in := condBranch(0x800)
	// A branch taken 9 times then not taken, repeatedly (loop backedge).
	correct := 0
	total := 0
	for iter := 0; iter < 50; iter++ {
		for i := 0; i < 10; i++ {
			taken := i != 9
			pred := p.Predict(pc, in)
			if iter > 5 {
				total++
				if pred.Taken == taken {
					correct++
				}
			}
			p.Resolve(pc, in, pred, taken, 0x800)
			if pred.Taken != taken {
				p.Restore(pred.Snapshot, true, taken)
			}
		}
	}
	acc := float64(correct) / float64(total)
	if acc < 0.85 {
		t.Errorf("gshare accuracy on 9-taken-1-not loop = %.2f, want >= 0.85", acc)
	}
}

func TestAlwaysTakenSaturates(t *testing.T) {
	p := New(DefaultConfig())
	in := condBranch(0x2000)
	// With gshare, each distinct history context has its own counter; an
	// always-taken branch saturates once the all-taken history repeats
	// (after GshareBits iterations), so train past that point.
	for i := 0; i < 20; i++ {
		pred := p.Predict(0x1000, in)
		p.Resolve(0x1000, in, pred, true, 0x2000)
		if !pred.Taken {
			p.Restore(pred.Snapshot, true, true)
		}
	}
	pred := p.Predict(0x1000, in)
	if !pred.Taken {
		t.Error("after training, always-taken branch predicted not taken")
	}
	if pred.Target != 0x2000 {
		t.Errorf("predicted target %#x, want 0x2000", pred.Target)
	}
}

func TestUnconditionalAlwaysTaken(t *testing.T) {
	p := New(DefaultConfig())
	in := isa.Inst{Op: isa.B, Imm: 0x3000}
	pred := p.Predict(0x1000, in)
	if !pred.Taken || pred.Target != 0x3000 {
		t.Errorf("B prediction = %+v", pred)
	}
}

func TestRASCallReturn(t *testing.T) {
	p := New(DefaultConfig())
	call := isa.Inst{Op: isa.BL, Rd: isa.LinkReg, Imm: 0x5000}
	ret := isa.Inst{Op: isa.BR, Rs1: isa.LinkReg}

	p.Predict(0x1000, call)
	p.Predict(0x1100, call) // nested call
	pred := p.Predict(0x5000, ret)
	if pred.Target != 0x1104 {
		t.Errorf("first return predicted %#x, want 0x1104", pred.Target)
	}
	pred = p.Predict(0x5000, ret)
	if pred.Target != 0x1004 {
		t.Errorf("second return predicted %#x, want 0x1004", pred.Target)
	}
}

func TestRASRestoreOnSquash(t *testing.T) {
	p := New(DefaultConfig())
	call := isa.Inst{Op: isa.BL, Rd: isa.LinkReg, Imm: 0x5000}
	ret := isa.Inst{Op: isa.BR, Rs1: isa.LinkReg}

	p.Predict(0x1000, call) // pushes 0x1004
	// A wrong-path call pushes garbage...
	wp := p.Predict(0x2000, call)
	// ...and is squashed.
	p.Restore(wp.Snapshot, false, false)
	pred := p.Predict(0x5000, ret)
	if pred.Target != 0x1004 {
		t.Errorf("post-squash return predicted %#x, want 0x1004", pred.Target)
	}
}

func TestIndirectFallsBackToBTB(t *testing.T) {
	p := New(DefaultConfig())
	br := isa.Inst{Op: isa.BR, Rs1: 5}
	pred := p.Predict(0x1000, br)
	if pred.Target != 0 {
		t.Errorf("cold indirect predicted %#x, want 0 (unknown)", pred.Target)
	}
	p.Resolve(0x1000, br, pred, true, 0x7000)
	// Empty RAS forces BTB path.
	pred = p.Predict(0x1000, br)
	if pred.Target != 0x7000 {
		t.Errorf("trained indirect predicted %#x, want 0x7000", pred.Target)
	}
}

func TestHistoryRestoredExactly(t *testing.T) {
	p := New(DefaultConfig())
	in := condBranch(0x2000)
	before := p.history
	pred := p.Predict(0x1000, in)
	if p.history == before && pred.Taken {
		t.Error("speculative history not updated")
	}
	p.Restore(pred.Snapshot, true, true)
	want := (before << 1) | 1
	if p.history != want {
		t.Errorf("history after restore = %#x, want %#x", p.history, want)
	}
}

func TestPredictPanicsOnNonBranch(t *testing.T) {
	p := New(DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	p.Predict(0x1000, isa.Inst{Op: isa.ADD})
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(Config{})
}

// TestRASOverflowWraps: pushing past the RAS depth must not corrupt newer
// entries; the most recent returns still predict correctly.
func TestRASOverflowWraps(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RASEntries = 4
	p := New(cfg)
	call := isa.Inst{Op: isa.BL, Rd: isa.LinkReg, Imm: 0x5000}
	ret := isa.Inst{Op: isa.BR, Rs1: isa.LinkReg}
	// 6 nested calls overflow the 4-deep stack.
	for i := uint64(0); i < 6; i++ {
		p.Predict(0x1000+i*0x100, call)
	}
	// The four most recent returns must come back exactly.
	for i := uint64(5); i >= 2; i-- {
		pred := p.Predict(0x5000, ret)
		want := 0x1000 + i*0x100 + 4
		if pred.Target != want {
			t.Fatalf("return %d predicted %#x, want %#x", i, pred.Target, want)
		}
	}
}

// TestSnapshotIndependence: restoring one prediction's snapshot does not
// depend on later predictions having been restored first.
func TestSnapshotIndependence(t *testing.T) {
	p := New(DefaultConfig())
	in := condBranch(0x2000)
	p1 := p.Predict(0x1000, in)
	p.Predict(0x1010, in)
	p.Predict(0x1020, in)
	p.Restore(p1.Snapshot, true, true)
	want := (p1.Snapshot.History << 1) | 1
	if p.history != want {
		t.Errorf("history = %#x, want %#x", p.history, want)
	}
}
