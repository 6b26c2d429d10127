package sweep

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"testing"
)

// marshalResultsOracle is results.json as json.MarshalIndent writes the
// whole RunResult, the encoding MarshalResults must reproduce byte for
// byte.
func marshalResultsOracle(res *RunResult) ([]byte, error) {
	data, err := json.MarshalIndent(res, "", "\t")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// fuzzSource hands out values drawn from fuzz bytes; an exhausted source
// reads as zeros, so a short input builds a mostly-zero RunResult.
type fuzzSource struct{ b []byte }

func (f *fuzzSource) byte() byte {
	if len(f.b) == 0 {
		return 0
	}
	c := f.b[0]
	f.b = f.b[1:]
	return c
}

func (f *fuzzSource) raw64() uint64 {
	var buf [8]byte
	n := copy(buf[:], f.b)
	f.b = f.b[n:]
	return binary.LittleEndian.Uint64(buf[:])
}

func (f *fuzzSource) u64() uint64 {
	switch c := f.byte(); c % 4 {
	case 0:
		return 0
	case 1:
		return uint64(c >> 2)
	case 2:
		return math.MaxUint64 - uint64(c>>2)
	default:
		return f.raw64()
	}
}

func (f *fuzzSource) int() int { return int(f.u64()) }

func (f *fuzzSource) bool() bool { return f.byte()&1 == 1 }

// specialFloats are the float64 values whose encoding takes a separate
// path: the signed zeros, the subnormals, the switch to exponent form at
// 1e21 and below 1e-6, the extremes, and the values json.Marshal refuses.
var specialFloats = []float64{
	0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 2.225073858507201e-308,
	1e21, 1e20, 999999999999999900000, 1e-6, 1e-7, 0.1, 1.0 / 3,
	math.MaxFloat64, -1e21, math.NaN(), math.Inf(1), math.Inf(-1),
}

func (f *fuzzSource) f64() float64 {
	c := f.byte()
	if int(c) < len(specialFloats) {
		return specialFloats[c]
	}
	if c < 128 {
		return math.Float64frombits(f.raw64())
	}
	return float64(c) / 7
}

// specialStrings exercise the escaping rules: HTML characters, quotes and
// backslashes, control bytes, the JavaScript line separators, multi-byte
// UTF-8 and invalid UTF-8.
var specialStrings = []string{
	"", "dgemm", "reuse", "2000:5000:100000", "<a&b>", `"\`, "\x00\x1f\t\n",
	"\u2028\u2029", "été", "\xff\xfe",
}

func (f *fuzzSource) str() string {
	c := f.byte()
	if int(c) < len(specialStrings) {
		return specialStrings[c]
	}
	n := int(c % 16)
	if n > len(f.b) {
		n = len(f.b)
	}
	s := string(f.b[:n])
	f.b = f.b[n:]
	return s
}

// strs is nil, empty or up to three strings.
func (f *fuzzSource) strs() []string {
	c := f.byte() % 5
	if c == 0 {
		return nil
	}
	out := make([]string, c-1)
	for i := range out {
		out[i] = f.str()
	}
	return out
}

func (f *fuzzSource) spec() Spec {
	s := Spec{Name: f.str(), Workloads: f.strs(), Schemes: f.strs(), Scale: f.int()}
	if c := f.byte() % 5; c > 0 {
		s.Sizes = make([]int, c-1)
		for i := range s.Sizes {
			s.Sizes[i] = f.int()
		}
	}
	s.ReuseDepth = f.int()
	s.DisableSpeculativeReuse = f.bool()
	s.MaxInsts, s.FastForward, s.Warmup = f.u64(), f.u64(), f.u64()
	s.Sample = f.str()
	s.SampleWorkers = f.int()
	return s
}

func (f *fuzzSource) job() Job {
	return Job{
		Workload: f.str(), Scheme: f.str(), Scale: f.int(), Size: f.int(),
		ReuseDepth: f.int(), DisableSpeculativeReuse: f.bool(),
		MaxInsts: f.u64(), FastForward: f.u64(), Warmup: f.u64(), Sample: f.str(),
	}
}

func (f *fuzzSource) result() JobResult {
	r := JobResult{
		Cycles: f.u64(), Insts: f.u64(), MicroOps: f.u64(),
		IPC: f.f64(), MPKI: f.f64(), ChecksumOK: f.bool(),
		Allocations: f.u64(), Reuses: f.u64(),
		ReusesByVer:    [4]uint64{f.u64(), f.u64(), f.u64(), f.u64()},
		Repairs:        f.u64(),
		PredReuseRight: f.u64(), PredReuseWrong: f.u64(),
		PredNormalRight: f.u64(), PredNormalWrong: f.u64(),
		StallNoReg: f.u64(), StallROB: f.u64(), StallIQ: f.u64(),
		FFInsts: f.u64(),
	}
	if f.bool() {
		r.Sampled = &SampleSummary{
			Plan: f.str(), Samples: f.int(),
			IPCMean: f.f64(), IPCStdErr: f.f64(),
			ReuseMean: f.f64(), ReuseStdErr: f.f64(),
			TotalInsts: f.u64(), DetailInsts: f.u64(), Coverage: f.f64(),
		}
	}
	return r
}

// genRunResult builds a RunResult from fuzz bytes: a nil grid, an empty
// one, or one to three jobs with their results.
func genRunResult(data []byte) *RunResult {
	f := &fuzzSource{b: data}
	res := &RunResult{SchemaVersion: int(int8(f.byte())), Spec: f.spec()}
	if c := f.byte() % 5; c > 0 {
		res.Jobs, res.Results = make([]Job, c-1), make([]JobResult, c-1)
		for i := range res.Jobs {
			res.Jobs[i], res.Results[i] = f.job(), f.result()
		}
	}
	return res
}

// FuzzResultsEncoding holds MarshalResults, the per-key rows assembled
// into results.json, to json.MarshalIndent of the whole RunResult: the
// same bytes for every RunResult the oracle encodes, and an error for
// every one it refuses (a NaN or infinite float). Each row's Line is
// json.Marshal of its result, the bytes a journal line embeds.
func FuzzResultsEncoding(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		res := genRunResult(data)
		want, werr := marshalResultsOracle(res)
		got, gerr := MarshalResults(res)
		if werr != nil {
			if gerr == nil {
				t.Fatalf("MarshalIndent refused the RunResult (%v) but MarshalResults wrote:\n%s", werr, got)
			}
			return
		}
		if gerr != nil {
			t.Fatalf("MarshalResults: %v; MarshalIndent wrote:\n%s", gerr, want)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("MarshalResults differs from MarshalIndent\ngot:\n%s\nwant:\n%s", got, want)
		}
		for i, j := range res.Jobs {
			row, err := EncodeRow(j, res.Results[i])
			if err != nil {
				t.Fatalf("job %d: %v", i, err)
			}
			line, _ := json.Marshal(res.Results[i])
			if !bytes.Equal(row.Line, line) {
				t.Fatalf("job %d: row line\n%s\nwant json.Marshal's\n%s", i, row.Line, line)
			}
		}
	})
}

// TestMarshalResultsRefusesUnpairedGrid: results.json's jobs and results
// are parallel arrays, so a RunResult whose slices differ in length, or
// where only one is nil, is an error rather than a misaligned artifact.
func TestMarshalResultsRefusesUnpairedGrid(t *testing.T) {
	for name, res := range map[string]*RunResult{
		"more jobs":    {Jobs: make([]Job, 2), Results: make([]JobResult, 1)},
		"more results": {Jobs: make([]Job, 1), Results: make([]JobResult, 2)},
		"nil jobs":     {Results: []JobResult{}},
		"nil results":  {Jobs: []Job{}},
	} {
		if data, err := MarshalResults(res); err == nil {
			t.Errorf("%s: wrote\n%s", name, data)
		}
	}
}
