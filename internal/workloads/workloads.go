// Package workloads defines the benchmark programs used throughout the
// reproduction. The paper evaluates SPECint/SPECfp CPU2006, Mediabench, and
// two cognitive-computing kernels (GMM and DNN); those binaries and inputs
// are proprietary or impractical here, so each suite is replaced by synthetic
// kernels — written in this repository's assembly language — chosen to span
// the same dependence shapes (see DESIGN.md §2).
//
// Every kernel leaves a checksum in integer register x10 before HALT, and
// carries the expected value computed by an independent pure-Go reference
// implementation, so both the functional emulator and the timing pipeline
// can be validated end-to-end against it.
package workloads

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/asm"
	"repro/internal/prog"
)

// Suite labels a benchmark family, mirroring the paper's grouping.
type Suite string

// The four suites evaluated by the paper.
const (
	SPECint   Suite = "specint"
	SPECfp    Suite = "specfp"
	Media     Suite = "media"
	Cognitive Suite = "cognitive"
)

// Suites lists all suites in presentation order.
func Suites() []Suite { return []Suite{SPECint, SPECfp, Media, Cognitive} }

// CheckReg is the integer register that holds the checksum at HALT.
const CheckReg = 10

// fpHeavy marks workloads whose register pressure lives in the
// floating-point file; sweeps vary that file and keep the other ample, as
// the paper does ("integer and floating-point register files are decoupled",
// §VI-B).
var fpHeavy = map[string]bool{
	"dgemm": true, "jacobi2d": true, "daxpy_chain": true, "nbody": true,
	"lu": true, "poly_horner": true, "montecarlo": true, "blackscholes": true,
	"fir": true, "iir": true, "dct8x8": true,
	"gmm_score": true, "dnn_mlp": true,
	"spmv": true, "cholesky": true, "fft": true,
	"conv2d": true, "kmeans": true,
}

// FPHeavy reports whether the named workload stresses the FP register file.
func FPHeavy(name string) bool { return fpHeavy[name] }

// Workload is one benchmark program.
type Workload struct {
	Name        string
	Suite       Suite
	Description string
	Source      string // assembly text
	Want        uint64 // expected value of x10 at HALT
}

// progCache memoizes assembled programs keyed by source text. Generators
// are deterministic, Program is immutable, and the emulator copies the data
// image into its own memory, so a cached instance is safe to share across
// goroutines. Without this cache every figure/regression pass re-assembles
// the full suite, which dominates the streaming analysis path.
var progCache sync.Map // source string -> *prog.Program

// Program assembles the workload (memoized per source). Generated sources
// are tested, so assembly failure is a programming error.
func (w Workload) Program() *prog.Program {
	if p, ok := progCache.Load(w.Source); ok {
		return p.(*prog.Program)
	}
	p := asm.MustAssemble(w.Source)
	// Concurrent first calls may race here; both assemble the same source,
	// and LoadOrStore keeps one canonical instance.
	got, _ := progCache.LoadOrStore(w.Source, p)
	return got.(*prog.Program)
}

type generator func(scale int) Workload

var registry = []struct {
	name string
	gen  generator
}{
	{"hashjoin", genHashJoin},
	{"qsortint", genQsortInt},
	{"listwalk", genListWalk},
	{"bitops", genBitops},
	{"rle", genRLE},
	{"treeins", genTreeIns},
	{"strmatch", genStrMatch},
	{"dijkstra", genDijkstra},

	{"dgemm", genDgemm},
	{"jacobi2d", genJacobi},
	{"daxpy_chain", genDaxpyChain},
	{"nbody", genNbody},
	{"lu", genLU},
	{"poly_horner", genHorner},
	{"montecarlo", genMonteCarlo},
	{"blackscholes", genBlackScholes},

	{"fir", genFIR},
	{"iir", genIIR},
	{"dct8x8", genDCT},
	{"adpcm_enc", genADPCM},
	{"sad_me", genSAD},

	{"gmm_score", genGMM},
	{"dnn_mlp", genDNN},

	{"huffman", genHuffman},
	{"radixsort", genRadixSort},
	{"bfs", genBFS},
	{"spmv", genSpMV},
	{"cholesky", genCholesky},
	{"fft", genFFT},
	{"sobel", genSobel},
	{"quantize", genQuantize},
	{"conv2d", genConv2D},
	{"kmeans", genKMeans},
}

// All returns every workload at reference scale (hundreds of thousands to a
// few million dynamic instructions each).
func All() []Workload { return AtScale(4) }

// Small returns every workload at a reduced scale suitable for unit tests
// (tens of thousands of dynamic instructions each).
func Small() []Workload { return AtScale(1) }

// generated memoizes generator output per (registry index, scale): the
// generators synthesize source text line by line, and re-running them per
// figure pass or per sweep request costs more than the analysis itself.
// All, Small, SuiteOf and ByName share it. Workload is a value struct of
// immutable fields, so handing out copies of cached entries is safe.
var generated = struct {
	mu sync.Mutex
	m  map[genKey]Workload
}{m: make(map[genKey]Workload)}

type genKey struct{ idx, scale int }

// generate returns registry[idx] at scale, running the generator on first
// use. Concurrent first calls may each run it; the first result stored is
// the one every caller gets.
func generate(idx, scale int) Workload {
	k := genKey{idx, scale}
	generated.mu.Lock()
	w, ok := generated.m[k]
	generated.mu.Unlock()
	if ok {
		return w
	}
	w = registry[idx].gen(scale)
	generated.mu.Lock()
	defer generated.mu.Unlock()
	if prev, ok := generated.m[k]; ok {
		return prev
	}
	generated.m[k] = w
	return w
}

// AtScale returns every workload at scale in registry order, in a fresh
// slice callers may reorder freely.
func AtScale(scale int) []Workload {
	ws := make([]Workload, len(registry))
	for i := range registry {
		ws[i] = generate(i, scale)
	}
	return ws
}

// ByName returns the named workload at the given scale (1 = small, 4 =
// reference). It returns false if the name is unknown.
func ByName(name string, scale int) (Workload, bool) {
	for i, r := range registry {
		if r.name == name {
			return generate(i, scale), true
		}
	}
	return Workload{}, false
}

// Names returns all workload names in registry order.
func Names() []string {
	ns := make([]string, len(registry))
	for i, r := range registry {
		ns[i] = r.name
	}
	return ns
}

// SuiteOf returns the workloads of one suite at the given scale.
func SuiteOf(s Suite, scale int) []Workload {
	var out []Workload
	for _, w := range AtScale(scale) {
		if w.Suite == s {
			out = append(out, w)
		}
	}
	return out
}

// ---- shared generation helpers ----

// lcg is the deterministic pseudo-random generator used both by the data
// emitters and the Go reference implementations.
type lcg struct{ s uint64 }

func newLCG(seed uint64) *lcg { return &lcg{s: seed} }

func (l *lcg) next() uint64 {
	l.s = l.s*6364136223846793005 + 1442695040888963407
	return l.s >> 17
}

// intn returns a value in [0, n).
func (l *lcg) intn(n uint64) uint64 { return l.next() % n }

// f64 returns a value in [0, 1).
func (l *lcg) f64() float64 { return float64(l.next()%(1<<52)) / (1 << 52) }

// srcBuilder assembles a workload source incrementally.
type srcBuilder struct {
	text strings.Builder
	data strings.Builder
}

func newSrc() *srcBuilder { return &srcBuilder{} }

// t appends text-section lines.
func (b *srcBuilder) t(format string, args ...any) {
	fmt.Fprintf(&b.text, format, args...)
	b.text.WriteByte('\n')
}

// d appends data-section lines.
func (b *srcBuilder) d(format string, args ...any) {
	fmt.Fprintf(&b.data, format, args...)
	b.data.WriteByte('\n')
}

// words emits a labelled .word array, eight values a line, each as %d
// formats it.
func (b *srcBuilder) words(label string, vals []int64) {
	emitArray(b, label, "  .word ", 8, 8, vals, func(dst []byte, v int64) []byte {
		return strconv.AppendInt(dst, v, 10)
	})
}

// doubles emits a labelled .double array, four values a line, each as
// %.17g formats it: enough digits to assemble back to the same bits.
func (b *srcBuilder) doubles(label string, vals []float64) {
	emitArray(b, label, "  .double ", 4, 22, vals, func(dst []byte, v float64) []byte {
		return strconv.AppendFloat(dst, v, 'g', 17, 64)
	})
}

// emitArray emits label: and then vals, perLine to a directive line,
// separated by ", ". Each value is appended to the line by appendVal. The
// data builder is first grown by the array's size at width bytes a value,
// separator included, so it is not regrown and copied as the lines arrive;
// the widths words and doubles pass are a little above the suite's
// averages (6.4 and 20.2 bytes).
func emitArray[T any](b *srcBuilder, label, directive string, perLine, width int, vals []T, appendVal func([]byte, T) []byte) {
	lines := (len(vals) + perLine - 1) / perLine
	b.data.Grow(len(label) + 2 + lines*(len(directive)+1) + len(vals)*width)
	b.d("%s:", label)
	var line []byte
	for i := 0; i < len(vals); i += perLine {
		line = append(line[:0], directive...)
		for j, v := range vals[i:min(i+perLine, len(vals))] {
			if j > 0 {
				line = append(line, ", "...)
			}
			line = appendVal(line, v)
		}
		line = append(line, '\n')
		b.data.Write(line)
	}
}

// space reserves label: .space n bytes.
func (b *srcBuilder) space(label string, n int) { b.d("%s: .space %d", label, n) }

// build finalizes the source.
func (b *srcBuilder) build() string {
	return b.text.String() + ".data\n" + b.data.String()
}

// fcvtzs mirrors the ISA's saturating float→int conversion for references.
func refFcvtzs(f float64) int64 {
	switch {
	case f != f: // NaN
		return 0
	case f >= 9.223372036854775807e18:
		return 1<<63 - 1
	case f <= -9.223372036854775808e18:
		return -1 << 63
	default:
		return int64(f)
	}
}

// sortInt64 sorts in place (reference helper).
func sortInt64(v []int64) { sort.Slice(v, func(i, j int) bool { return v[i] < v[j] }) }
