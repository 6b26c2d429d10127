package pipeline

// Unit-level tests of microarchitectural behaviours: functional-unit
// occupancy, issue width, fetch stalls, dispatch-width limits, and the
// repair micro-op path.

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/bpred"
	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/workloads"
)

// cyclesFor runs src on a baseline core and returns total cycles.
func cyclesFor(t *testing.T, src string, mut func(*Config)) uint64 {
	t.Helper()
	c := runScheme(t, src, Baseline, mut)
	return c.Stats().Cycles
}

// TestUnpipelinedDividerSerializes: two independent divides on one divider
// must take about twice as long as one.
func TestUnpipelinedDividerSerializes(t *testing.T) {
	one := `
	movi x1, #1000
	movi x2, #7
	sdiv x3, x1, x2
	halt
	`
	two := `
	movi x1, #1000
	movi x2, #7
	sdiv x3, x1, x2
	sdiv x4, x1, x2
	halt
	`
	c1 := cyclesFor(t, one, nil)
	c2 := cyclesFor(t, two, nil)
	lat := uint64(isa.SDIV.Describe().Latency)
	if c2 < c1+lat-2 {
		t.Errorf("two divides took %d cycles vs %d for one; divider not serializing (lat %d)", c2, c1, lat)
	}
	// Pipelined multiplies must NOT serialize that way.
	oneMul := strings.ReplaceAll(one, "sdiv", "mul")
	twoMul := strings.ReplaceAll(two, "sdiv", "mul")
	m1 := cyclesFor(t, oneMul, nil)
	m2 := cyclesFor(t, twoMul, nil)
	if m2 > m1+2 {
		t.Errorf("independent multiplies serialized: %d vs %d", m2, m1)
	}
}

// TestIssueWidthBoundsThroughput: with issue width 1, a block of independent
// adds must take at least one cycle each.
func TestIssueWidthBoundsThroughput(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("\tmovi x1, #1\n")
	const n = 60
	for i := 0; i < n; i++ {
		sb.WriteString("\tadd x2, x1, x1\n")
	}
	sb.WriteString("\thalt\n")
	wide := cyclesFor(t, sb.String(), nil)
	narrow := cyclesFor(t, sb.String(), func(cfg *Config) { cfg.IssueWidth = 1 })
	if narrow < n {
		t.Errorf("issue width 1: %d cycles for %d instructions", narrow, n)
	}
	if wide >= narrow {
		t.Errorf("wider issue (%d) not faster than width-1 (%d)", wide, narrow)
	}
}

// TestRenameWidthBoundsThroughput: the front end renames at most
// RenameWidth instructions per cycle.
func TestRenameWidthBoundsThroughput(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("\tmovi x1, #1\n")
	const n = 90
	for i := 0; i < n; i++ {
		sb.WriteString("\tadd x2, x1, x1\n")
	}
	sb.WriteString("\thalt\n")
	c := runScheme(t, sb.String(), Baseline, nil)
	minCycles := uint64((n + 1) / c.cfg.RenameWidth)
	if c.Stats().Cycles < minCycles {
		t.Errorf("%d instructions committed in %d cycles; rename width %d violated",
			n, c.Stats().Cycles, c.cfg.RenameWidth)
	}
}

// TestICacheMissStallsFetch: a cold instruction stream crossing many lines
// must charge I-cache miss latency; a hot rerun of the same loop must not.
func TestICacheMissStallsFetch(t *testing.T) {
	// A loop large enough to span multiple I-cache lines, run twice.
	var sb strings.Builder
	sb.WriteString("\tmovi x1, #2\nbig:\n")
	for i := 0; i < 64; i++ {
		sb.WriteString("\taddi x2, x2, #1\n")
	}
	sb.WriteString("\tsubi x1, x1, #1\n\tbne x1, xzr, big\n\thalt\n")
	c := runScheme(t, sb.String(), Baseline, nil)
	if c.Stats().FetchStallIcache == 0 {
		t.Error("cold fetch produced no I-cache stall cycles")
	}
	if c.Hierarchy().L1I.Misses == 0 {
		t.Error("no I-cache misses recorded")
	}
	if c.Hierarchy().L1I.Hits < c.Hierarchy().L1I.Misses {
		t.Error("second loop iteration should hit in the I-cache")
	}
}

// TestROBFullStalls: a long-latency load chain at the ROB head must fill the
// window and stall rename on ROB capacity.
func TestROBFullStalls(t *testing.T) {
	src := `
	la   x1, buf
	movi x20, #40
loop:
	ldr  x2, [x1, #0]      ; cold misses serialize at the head
	addi x1, x1, #4096
	subi x20, x20, #1
	bne  x20, xzr, loop
	halt
.data
buf: .space 8
	`
	c := runScheme(t, src, Baseline, func(cfg *Config) {
		cfg.ROBSize = 8
		cfg.DemandPaging = false
	})
	if c.Stats().StallROB == 0 {
		t.Error("tiny ROB with miss chain produced no ROB-full stalls")
	}
}

// TestIQFullStalls: a window of instructions all waiting on one long divide
// fills the 4-entry IQ.
func TestIQFullStalls(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("\tmovi x1, #1000000\n\tmovi x2, #7\n\tsdiv x3, x1, x2\n")
	for i := 0; i < 30; i++ {
		sb.WriteString("\tadd x4, x3, x1\n") // all depend on the divide
	}
	sb.WriteString("\thalt\n")
	c := runScheme(t, sb.String(), Baseline, func(cfg *Config) { cfg.IQSize = 4 })
	if c.Stats().StallIQ == 0 {
		t.Error("tiny IQ produced no IQ-full stalls")
	}
}

// TestRepairMicroOpLatency: a repair whose stolen value was already
// checkpointed uses the 3-cycle shadow dance; the IQ entry records it.
func TestRepairMicroOpsCommitAndCount(t *testing.T) {
	// Force the speculative steal + later consumer pattern in a loop.
	src := `
	movi x20, #400
	movi x2, #3
loop:
	movi x1, #7            ; producer (predicted single-use after warmup)
	add  x3, x1, x2        ; first consumer, not redefining: steals x1
	add  x4, x1, x3        ; second consumer: repair micro-op
	subi x20, x20, #1
	bne  x20, xzr, loop
	mov  x10, x4
	halt
	`
	c := runScheme(t, src, Reuse, nil)
	x, _ := c.ArchRegs()
	if x[10] != 17 {
		t.Errorf("x10 = %d, want 17", x[10])
	}
	st := c.Stats()
	ri := c.RenStats(isa.IntReg)
	// The very first steal triggers a repair, which resets the predictor
	// entry; afterwards the pattern runs repair-free.
	if ri.Repairs == 0 {
		t.Error("expected at least one repair")
	}
	if st.MicroOps > 20 {
		t.Errorf("%d committed micro-ops; predictor did not learn", st.MicroOps)
	}
}

// TestFetchQueueBounded: the fetch queue never exceeds its configured size.
func TestFetchQueueBounded(t *testing.T) {
	src := `
	movi x1, #1000000
	movi x2, #7
	sdiv x3, x1, x2
	sdiv x3, x3, x2
	sdiv x3, x3, x2
	halt
	`
	p := mustAssemble(t, src)
	cfg := DefaultConfig(Baseline)
	cfg.FetchQSize = 5
	cfg.MaxCycles = 100000
	c := New(cfg, p)
	for !c.halted {
		c.step()
		if c.fqCount > 5 {
			t.Fatalf("fetch queue grew to %d", c.fqCount)
		}
		if c.cycle > 90000 {
			t.Fatal("did not halt")
		}
	}
}

// TestMemoryPortContention: more memory ports means cache-resident streams
// drain faster.
func TestMemoryPortContention(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("\tla x1, buf\n")
	for i := 0; i < 40; i++ {
		sb.WriteString("\tldr x2, [x1, #0]\n") // same hot line
	}
	sb.WriteString("\thalt\n.data\nbuf: .space 64\n")
	onePort := cyclesFor(t, sb.String(), func(cfg *Config) {
		cfg.FUCount[isa.FUMem] = 1
		cfg.DemandPaging = false
	})
	twoPorts := cyclesFor(t, sb.String(), func(cfg *Config) {
		cfg.DemandPaging = false
	})
	if twoPorts >= onePort {
		t.Errorf("2 memory ports (%d cycles) not faster than 1 (%d)", twoPorts, onePort)
	}
}

func mustAssemble(t *testing.T, src string) *prog.Program {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPredictorKinds runs a branchy workload under each direction-predictor
// kind: all must be architecturally correct, and the tournament should not
// mispredict more than the worse component.
func TestPredictorKinds(t *testing.T) {
	w, _ := workloads.ByName("adpcm_enc", 1)
	mispredicts := map[bpred.Kind]uint64{}
	for _, kind := range []bpred.Kind{bpred.Gshare, bpred.Bimodal, bpred.Tournament} {
		cfg := DefaultConfig(Baseline)
		cfg.Bpred.Kind = kind
		cfg.CheckOracle = true
		cfg.MaxCycles = 1 << 30
		c := New(cfg, w.Program())
		if err := c.Run(); err != nil {
			t.Fatalf("kind %d: %v", kind, err)
		}
		x, _ := c.ArchRegs()
		if x[workloads.CheckReg] != w.Want {
			t.Fatalf("kind %d: wrong checksum", kind)
		}
		mispredicts[kind] = c.Stats().Mispredicts
	}
	t.Logf("mispredicts: gshare=%d bimodal=%d tournament=%d",
		mispredicts[bpred.Gshare], mispredicts[bpred.Bimodal], mispredicts[bpred.Tournament])
	worst := mispredicts[bpred.Gshare]
	if mispredicts[bpred.Bimodal] > worst {
		worst = mispredicts[bpred.Bimodal]
	}
	if mispredicts[bpred.Tournament] > worst+worst/10 {
		t.Errorf("tournament (%d) much worse than both components (max %d)",
			mispredicts[bpred.Tournament], worst)
	}
}
