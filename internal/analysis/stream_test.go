package analysis

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/prog"
	"repro/internal/workloads"
)

// oracleReport runs the reference per-commit collector (the pre-streaming
// implementation, kept as the correctness oracle).
func oracleReport(t *testing.T, p *prog.Program) Report {
	t.Helper()
	rep, err := Analyze(emu.New(p), 1<<32)
	if err != nil {
		t.Fatalf("oracle Analyze: %v", err)
	}
	return rep
}

// streamReport runs the streaming collector over the batched commit sink
// and asserts its internal invariants: every group resolved and every
// pooled record returned to the freelist after Finalize.
func streamReport(t *testing.T, p *prog.Program) Report {
	t.Helper()
	c := NewStream(p)
	if _, err := emu.New(p).RunToHaltBatch(1<<32, c); err != nil {
		t.Fatalf("RunToHaltBatch: %v", err)
	}
	rep := c.Finalize()
	if n := c.pendingGroups(); n != 0 {
		t.Fatalf("%d groups still unresolved after Finalize (lost wakeup)", n)
	}
	if n := c.poolInUse(); n != 0 {
		t.Fatalf("%d records leaked after Finalize (unbalanced refcounts)", n)
	}
	return rep
}

// TestStreamMatchesOracleOnWorkloads pins exact Report equality between the
// streaming collector and the reference collector over every workload
// kernel. This is the contract that lets the figure harnesses ride the
// fast path while the slow path stays the oracle.
func TestStreamMatchesOracleOnWorkloads(t *testing.T) {
	for _, w := range workloads.Small() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			p := w.Program()
			want := oracleReport(t, p)
			got := streamReport(t, p)
			if got != want {
				t.Fatalf("streaming report diverged from oracle:\n got: %+v\nwant: %+v", got, want)
			}
		})
	}
}

// randomProgram emits a seeded random assembly program exercising the
// dependence shapes the collector classifies: register redefinition chains
// (10 int / 8 fp registers force heavy reuse), cross-class producers
// (scvtf/fcvtzs: class-mismatched sole consumers), destination-free
// consumers (stores, branches), XZR sources and destinations, duplicate
// sources, and forward-only branches (guaranteed termination).
func randomProgram(rng *rand.Rand) string {
	var b strings.Builder
	n := 150 + rng.Intn(250)
	b.WriteString("\tla x28, buf\n")
	for r := 1; r <= 8; r++ {
		fmt.Fprintf(&b, "\tmovi x%d, #%d\n", r, rng.Intn(64)+1)
	}
	for r := 0; r <= 7; r++ {
		fmt.Fprintf(&b, "\tscvtf f%d, x%d\n", r, r+1)
	}
	intSrc := func() string {
		if rng.Intn(12) == 0 {
			return "xzr" // filtered source
		}
		return fmt.Sprintf("x%d", 1+rng.Intn(10))
	}
	intDst := func() string {
		if rng.Intn(16) == 0 {
			return "xzr" // filtered destination
		}
		return fmt.Sprintf("x%d", 1+rng.Intn(10))
	}
	fp := func() int { return rng.Intn(8) }
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "L%d:\n", i)
		switch rng.Intn(10) {
		case 0, 1, 2:
			ops := [...]string{"add", "sub", "and", "orr", "eor", "mul", "slt", "sltu"}
			fmt.Fprintf(&b, "\t%s %s, %s, %s\n", ops[rng.Intn(len(ops))], intDst(), intSrc(), intSrc())
		case 3:
			fmt.Fprintf(&b, "\taddi %s, %s, #%d\n", intDst(), intSrc(), rng.Intn(32))
		case 4, 5:
			ops := [...]string{"fadd", "fsub", "fmul", "fmin", "fmax"}
			fmt.Fprintf(&b, "\t%s f%d, f%d, f%d\n", ops[rng.Intn(len(ops))], fp(), fp(), fp())
		case 6: // cross-class conversions: class-mismatched consumption
			if rng.Intn(2) == 0 {
				fmt.Fprintf(&b, "\tscvtf f%d, %s\n", fp(), intSrc())
			} else {
				fmt.Fprintf(&b, "\tfcvtzs %s, f%d\n", intDst(), fp())
			}
		case 7: // memory: stores are destination-free consumers
			off := 8 * rng.Intn(16)
			switch rng.Intn(4) {
			case 0:
				fmt.Fprintf(&b, "\tldr %s, [x28, #%d]\n", intDst(), off)
			case 1:
				fmt.Fprintf(&b, "\tstr %s, [x28, #%d]\n", intSrc(), off)
			case 2:
				fmt.Fprintf(&b, "\tfldr f%d, [x28, #%d]\n", fp(), off)
			case 3:
				fmt.Fprintf(&b, "\tfstr f%d, [x28, #%d]\n", fp(), off)
			}
		case 8:
			fmt.Fprintf(&b, "\tfcmplt %s, f%d, f%d\n", intDst(), fp(), fp())
		case 9: // forward-only branch: destination-free consumer
			tgt := i + 1 + rng.Intn(n-i)
			ops := [...]string{"beq", "bne", "blt", "bge", "bltu", "bgeu"}
			fmt.Fprintf(&b, "\t%s %s, %s, L%d\n", ops[rng.Intn(len(ops))], intSrc(), intSrc(), tgt)
		}
	}
	fmt.Fprintf(&b, "L%d:\n\thalt\n.data\nbuf: .space 128\n", n)
	return b.String()
}

// TestStreamMatchesOracleFuzz pins exact Report equality over seeded random
// programs — the first step toward ROADMAP's generated-program front. The
// seeds are fixed, so a failure reproduces deterministically.
func TestStreamMatchesOracleFuzz(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 10
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			src := randomProgram(rand.New(rand.NewSource(int64(seed))))
			p, err := asm.Assemble(src)
			if err != nil {
				t.Fatalf("assemble: %v\n%s", err, src)
			}
			want := oracleReport(t, p)
			got := streamReport(t, p)
			if got != want {
				t.Fatalf("streaming report diverged from oracle:\n got: %+v\nwant: %+v\nprogram:\n%s", got, want, src)
			}
		})
	}
}

// TestStreamDuplicateAndRedefShapes hand-covers the classification corner
// cases: duplicate sources count one consumer, a redefining sole consumer
// classifies its group immediately, and chains propagate depth through
// deferred claims.
func TestStreamDuplicateAndRedefShapes(t *testing.T) {
	src := `
	movi x1, #3
	add  x2, x1, x1    ; duplicate source: one consumer of x1's def
	add  x2, x2, x0    ; redefines x2: sole consumer + redef
	add  x3, x2, x0    ; chain depth 1 -> x3
	add  x4, x3, x0    ; chain depth 2 -> x4
	add  x5, x4, x0    ; chain depth 3 -> x5
	add  x6, x5, x0    ; chain depth 4 -> deeper bucket
	halt
`
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	want := oracleReport(t, p)
	got := streamReport(t, p)
	if got != want {
		t.Fatalf("streaming report diverged from oracle:\n got: %+v\nwant: %+v", got, want)
	}
	if got.ReuseDeeper == 0 {
		t.Fatal("expected a deeper-than-3 reuse in the chain program")
	}
	if got.SingleUseRedef == 0 {
		t.Fatal("expected a redefining single-use in the chain program")
	}
}

// shapeProgram assembles one instruction per byte of shapes, each a shape
// from randomProgram's menu. The top three bits pick the shape; the low
// five pick the operands from a three-register window per class (x1-x3,
// f0-f2), so a few bytes already redefine registers densely. Nothing
// writes the window before the first shape, so every register starts with
// its pre-trace value.
func shapeProgram(shapes []byte) string {
	var b strings.Builder
	n := len(shapes)
	x := func(r int) string { return fmt.Sprintf("x%d", r%3+1) }
	f := func(r int) string { return fmt.Sprintf("f%d", r%3) }
	b.WriteString("\tla x28, buf\n")
	for i, s := range shapes {
		v := int(s & 31)
		d, s1, s2 := v%3, v/3%3, v/9 // s2 is 0-3; as a register it wraps
		fmt.Fprintf(&b, "L%d:\n", i)
		switch s >> 5 {
		case 0:
			fmt.Fprintf(&b, "\tadd %s, %s, %s\n", x(d), x(s1), x(s2))
		case 1: // s2 1 and 2 put XZR in the source and destination
			src, dst := x(s1), x(d)
			switch s2 {
			case 1:
				src = "xzr"
			case 2:
				dst = "xzr"
			}
			fmt.Fprintf(&b, "\taddi %s, %s, #%d\n", dst, src, v)
		case 2:
			fmt.Fprintf(&b, "\tfadd %s, %s, %s\n", f(d), f(s1), f(s2))
		case 3: // cross-class conversions: class-mismatched consumption
			fmt.Fprintf(&b, "\tscvtf %s, %s\n", f(d), x(s1))
		case 4:
			fmt.Fprintf(&b, "\tfcvtzs %s, %s\n", x(d), f(s1))
		case 5: // memory: stores are destination-free consumers
			op, reg := [...]string{"ldr", "str", "fldr", "fstr"}[s2], x(d)
			if s2 >= 2 {
				reg = f(d)
			}
			fmt.Fprintf(&b, "\t%s %s, [x28, #%d]\n", op, reg, 8*s1)
		case 6:
			fmt.Fprintf(&b, "\tfcmplt %s, %s, %s\n", x(d), f(s1), f(s2))
		case 7: // forward-only branch: destination-free consumer
			fmt.Fprintf(&b, "\t%s %s, %s, L%d\n", [...]string{"beq", "bne", "blt", "bge"}[s2], x(s1), x(d), min(n, i+2))
		}
	}
	fmt.Fprintf(&b, "L%d:\n\thalt\n.data\nbuf: .space 128\n", n)
	return b.String()
}

// FuzzStreamMatchesOracle requires exact Report equality between the
// streaming collector and the reference collector over programs built one
// shape per input byte, and a drained collector after Finalize. The seed
// corpus (testdata/fuzz/FuzzStreamMatchesOracle) covers a pre-trace read of
// the redefined register beside a first read of a live def, two candidates
// where only the later-created one redefines, two candidates read in the
// opposite order to their creation, chains deeper than three through
// waiting groups, a second consumer before the member closes, and
// cross-class conversions.
func FuzzStreamMatchesOracle(f *testing.F) {
	f.Fuzz(func(t *testing.T, shapes []byte) {
		if len(shapes) > 512 {
			shapes = shapes[:512]
		}
		src := shapeProgram(shapes)
		p, err := asm.Assemble(src)
		if err != nil {
			t.Fatalf("assemble: %v\n%s", err, src)
		}
		want := oracleReport(t, p)
		got := streamReport(t, p)
		if got != want {
			t.Fatalf("streaming report diverged from oracle:\n got: %+v\nwant: %+v\nprogram:\n%s", got, want, src)
		}
	})
}

// TestStreamSteadyStateZeroAllocs proves the tentpole's allocation claim at
// the collector level: after one warmup pass grows the pools, re-analyzing
// a full workload trace through Reset + CommitBatch + Finalize allocates
// nothing. dgemm settles nearly every candidate row at creation; radixsort
// settles about a fifth and keeps up to 18 groups waiting at once, so its
// replay exercises the record and group pools.
func TestStreamSteadyStateZeroAllocs(t *testing.T) {
	for _, name := range []string{"dgemm", "radixsort"} {
		t.Run(name, func(t *testing.T) {
			w, ok := workloads.ByName(name, 1)
			if !ok {
				t.Fatalf("%s workload missing", name)
			}
			p := w.Program()

			// Record the batched commit stream once so the measured loop runs
			// only collector code.
			type batch struct {
				seq  uint64
				rows []uint32
			}
			var batches []batch
			rec := func(seq uint64, rows []uint32) {
				batches = append(batches, batch{seq, append([]uint32(nil), rows...)})
			}
			if _, err := emu.New(p).RunToHaltBatch(1<<32, sinkFunc(rec)); err != nil {
				t.Fatal(err)
			}

			c := NewStream(p)
			replay := func() {
				c.Reset()
				for _, b := range batches {
					c.CommitBatch(b.seq, b.rows)
				}
				c.Finalize()
			}
			replay() // warm the pools
			if allocs := testing.AllocsPerRun(5, replay); allocs != 0 {
				t.Fatalf("steady-state replay allocates %.1f times per run, want 0", allocs)
			}
		})
	}
}

// sinkFunc adapts a function to emu.CommitSink for tests.
type sinkFunc func(startSeq uint64, rows []uint32)

func (f sinkFunc) CommitBatch(startSeq uint64, rows []uint32) { f(startSeq, rows) }

// TestAnalyzeProgramMatchesAnalyze pins the two public entry points against
// each other on one workload (the per-API-surface version of the
// collector-level equivalence above).
func TestAnalyzeProgramMatchesAnalyze(t *testing.T) {
	w, ok := workloads.ByName("fft", 1)
	if !ok {
		t.Fatal("fft workload missing")
	}
	p := w.Program()
	want, err := Analyze(emu.New(p), 1<<32)
	if err != nil {
		t.Fatal(err)
	}
	got, err := AnalyzeProgram(p, 1<<32)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("AnalyzeProgram = %+v, Analyze = %+v", got, want)
	}
}
