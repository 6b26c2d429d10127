package workloads

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/isa"
)

// maxInsts bounds any single small-scale workload in tests.
const maxInsts = 30_000_000

func TestSmallWorkloadsMatchReference(t *testing.T) {
	for _, w := range Small() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			p := w.Program()
			s := emu.New(p)
			n, err := s.RunToHalt(maxInsts, nil)
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			if got := s.X[CheckReg]; got != w.Want {
				t.Errorf("%s: checksum = %#x, want %#x", w.Name, got, w.Want)
			}
			if n < 5_000 {
				t.Errorf("%s: only %d dynamic instructions; too small to be meaningful", w.Name, n)
			}
			t.Logf("%s: %d dynamic instructions", w.Name, n)
		})
	}
}

func TestReferenceScaleWorkloadsMatchReference(t *testing.T) {
	if testing.Short() {
		t.Skip("reference scale in -short mode")
	}
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			s := emu.New(w.Program())
			n, err := s.RunToHalt(200_000_000, nil)
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			if got := s.X[CheckReg]; got != w.Want {
				t.Errorf("%s: checksum = %#x, want %#x", w.Name, got, w.Want)
			}
			t.Logf("%s: %d dynamic instructions", w.Name, n)
		})
	}
}

func TestRegistryLookups(t *testing.T) {
	names := Names()
	if len(names) != 33 {
		t.Errorf("expected 33 workloads, got %d", len(names))
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("duplicate workload name %q", n)
		}
		seen[n] = true
		if _, ok := ByName(n, 1); !ok {
			t.Errorf("ByName(%q) failed", n)
		}
	}
	if _, ok := ByName("nonexistent", 1); ok {
		t.Error("ByName accepted unknown name")
	}
}

func TestSuiteGrouping(t *testing.T) {
	wantMin := map[Suite]int{SPECint: 11, SPECfp: 11, Media: 7, Cognitive: 4}
	total := 0
	for _, s := range Suites() {
		got := SuiteOf(s, 1)
		if len(got) < wantMin[s] {
			t.Errorf("suite %s has %d workloads, want >= %d", s, len(got), wantMin[s])
		}
		total += len(got)
	}
	if total != len(Names()) {
		t.Errorf("suites hold %d workloads, the registry %d", total, len(Names()))
	}
}

func TestScalesDiffer(t *testing.T) {
	small, _ := ByName("hashjoin", 1)
	big, _ := ByName("hashjoin", 4)
	if small.Source == big.Source {
		t.Error("scale parameter has no effect on hashjoin")
	}
	if small.Want == 0 || big.Want == 0 {
		t.Error("degenerate zero checksums")
	}
}

// TestByNameMemoized: a scale that All and Small never fill is still
// generated once per workload, so a repeated lookup allocates nothing.
func TestByNameMemoized(t *testing.T) {
	const scale = 2
	first, _ := ByName("dgemm", scale)
	var again Workload
	if allocs := testing.AllocsPerRun(10, func() { again, _ = ByName("dgemm", scale) }); allocs != 0 {
		t.Errorf("repeated ByName allocates %.0f times per call, want 0", allocs)
	}
	if again.Source != first.Source || again.Want != first.Want {
		t.Error("memoized ByName returned a different workload")
	}
	if w := AtScale(scale); w[registryIndex(t, "dgemm")].Source != first.Source {
		t.Error("AtScale and ByName disagree on a memoized workload")
	}
}

// TestByNameConcurrent: concurrent first lookups of one (name, scale) all
// get the same Source. The memo entry is dropped first, so every -count
// repetition races on a cold key; run it under -race.
func TestByNameConcurrent(t *testing.T) {
	const name, scale, callers = "listwalk", 2, 8
	generated.mu.Lock()
	delete(generated.m, genKey{registryIndex(t, name), scale})
	generated.mu.Unlock()

	srcs := make([]string, callers)
	var wg sync.WaitGroup
	for i := range srcs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w, _ := ByName(name, scale)
			srcs[i] = w.Source
		}(i)
	}
	wg.Wait()
	for i, s := range srcs {
		if s == "" || s != srcs[0] {
			t.Fatalf("caller %d got a different source (%d vs %d bytes)", i, len(s), len(srcs[0]))
		}
	}
}

func registryIndex(t *testing.T, name string) int {
	t.Helper()
	for i, n := range Names() {
		if n == name {
			return i
		}
	}
	t.Fatalf("unknown workload %q", name)
	return -1
}

func TestGenerationDeterministic(t *testing.T) {
	a := All()
	b := All()
	for i := range a {
		if a[i].Source != b[i].Source || a[i].Want != b[i].Want {
			t.Errorf("%s: generation is not deterministic", a[i].Name)
		}
	}
}

func TestDescriptionsPresent(t *testing.T) {
	for _, w := range Small() {
		if w.Description == "" {
			t.Errorf("%s: missing description", w.Name)
		}
		if w.Suite == "" {
			t.Errorf("%s: missing suite", w.Name)
		}
	}
}

// TestDisassemblyRoundTrip: re-assembling every workload's disassembly
// (instruction String() forms, with absolute branch targets) must reproduce
// the identical instruction sequence — a strong property tying the
// assembler, the disassembler and the ISA together.
func TestDisassemblyRoundTrip(t *testing.T) {
	for _, w := range Small() {
		p := w.Program()
		var sb strings.Builder
		for pc := p.Entry(); pc < p.TextEnd(); pc += 4 {
			in, ok := p.Fetch(pc)
			if !ok {
				t.Fatalf("%s: fetch hole at %#x", w.Name, pc)
			}
			sb.WriteString(in.String())
			sb.WriteByte('\n')
		}
		p2, err := asm.Assemble(sb.String())
		if err != nil {
			t.Fatalf("%s: reassembly failed: %v", w.Name, err)
		}
		if p2.NumInsts() != p.NumInsts() {
			t.Fatalf("%s: %d instructions reassembled, want %d", w.Name, p2.NumInsts(), p.NumInsts())
		}
		for pc := p.Entry(); pc < p.TextEnd(); pc += 4 {
			a, _ := p.Fetch(pc)
			b, _ := p2.Fetch(pc)
			if a != b {
				t.Fatalf("%s: instruction mismatch at %#x: %v vs %v", w.Name, pc, a, b)
			}
		}
	}
}

// TestBinaryEncodingRoundTrip serializes every workload instruction through
// the 12-byte record format and back.
func TestBinaryEncodingRoundTrip(t *testing.T) {
	var buf [isa.EncodedBytes]byte
	for _, w := range Small() {
		p := w.Program()
		for pc := p.Entry(); pc < p.TextEnd(); pc += 4 {
			in, _ := p.Fetch(pc)
			isa.Encode(in, buf[:])
			out, err := isa.Decode(buf[:])
			if err != nil {
				t.Fatalf("%s: decode at %#x: %v", w.Name, pc, err)
			}
			if out != in {
				t.Fatalf("%s: codec mismatch at %#x: %v vs %v", w.Name, pc, in, out)
			}
		}
	}
}

// TestOddScalesMatchReference: every kernel also generates at the scales
// between the usual 1, 2, 4 and 8, and its program runs to HALT on the
// emulator with the reference checksum. Hashjoin's probe loop wraps with
// & mask, so a table size that is not a power of two never finishes
// generating; each generation gets a minute.
func TestOddScalesMatchReference(t *testing.T) {
	for _, scale := range []int{3, 5} {
		for _, name := range Names() {
			t.Run(fmt.Sprintf("%s@%d", name, scale), func(t *testing.T) {
				gen := make(chan Workload, 1)
				go func() {
					w, _ := ByName(name, scale)
					gen <- w
				}()
				var w Workload
				select {
				case w = <-gen:
				case <-time.After(time.Minute):
					t.Fatalf("%s at scale %d did not generate within a minute", name, scale)
				}
				s := emu.New(w.Program())
				n, err := s.RunToHalt(200_000_000, nil)
				if err != nil {
					t.Fatal(err)
				}
				if got := s.X[CheckReg]; got != w.Want {
					t.Errorf("checksum = %#x, want %#x", got, w.Want)
				}
				t.Logf("%d dynamic instructions", n)
			})
		}
	}
}

// TestArrayFormatting pins words and doubles to the fmt forms the sources
// were first written with: %d for each .word and %.17g for each .double,
// joined by ", ", eight words or four doubles a line.
func TestArrayFormatting(t *testing.T) {
	words := []int64{0, 1, -1, 42, -987654321, math.MaxInt64, math.MinInt64, -math.MaxInt64, 7}
	doubles := []float64{
		0, math.Copysign(0, -1), 1, -2.5, 0.1, 1.0 / 3, -2.0 / 3, math.Pi,
		5e-324, 2.2250738585072009e-308, math.MaxFloat64, -math.SmallestNonzeroFloat64,
		1e21, 123456789012345678, 0.30000000000000004,
	}
	var want strings.Builder
	want.WriteString("w:\n")
	for i := 0; i < len(words); i += 8 {
		var parts []string
		for _, v := range words[i:min(i+8, len(words))] {
			parts = append(parts, fmt.Sprintf("%d", v))
		}
		want.WriteString("  .word " + strings.Join(parts, ", ") + "\n")
	}
	want.WriteString("d:\n")
	for i := 0; i < len(doubles); i += 4 {
		var parts []string
		for _, v := range doubles[i:min(i+4, len(doubles))] {
			parts = append(parts, fmt.Sprintf("%.17g", v))
		}
		want.WriteString("  .double " + strings.Join(parts, ", ") + "\n")
	}
	b := newSrc()
	b.words("w", words)
	b.doubles("d", doubles)
	if got := b.data.String(); got != want.String() {
		t.Errorf("emitted arrays differ from the fmt forms\ngot:\n%s\nwant:\n%s", got, want.String())
	}
}
