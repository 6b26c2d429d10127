package sim

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/area"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/regfile"
	"repro/internal/workloads"
)

// TestSweptFiles: Swept gives the workload's pressured file RegFile's
// layout, keeps the other ample, and names the swept class.
func TestSweptFiles(t *testing.T) {
	if RegFile(pipeline.Baseline, 64) != regfile.Uniform(64, 0) ||
		RegFile(pipeline.EarlyRelease, 64) != area.EqualAreaConfig(64, 64) {
		t.Fatal("RegFile does not pair the baseline with the equal-area hybrid")
	}
	for workload, class := range map[string]isa.RegClass{"dgemm": isa.FPReg, "qsortint": isa.IntReg} {
		cfg := pipeline.DefaultConfig(pipeline.Reuse)
		if got := Swept(&cfg, workload, 64); got != class {
			t.Errorf("%s: swept class %v, want %v", workload, got, class)
		}
		swept, ample := cfg.IntRegs, cfg.FPRegs
		if class == isa.FPReg {
			swept, ample = ample, swept
		}
		if swept != RegFile(pipeline.Reuse, 64) || ample != regfile.Uniform(128, 0) {
			t.Errorf("%s: swept file %v, ample file %v", workload, swept, ample)
		}
	}
}

// TestZipCoversEveryCounter fills every counter through reflection and
// requires add and sub to carry each one. A counter added to Counters but
// not to zip would otherwise read zero in every sampled run.
func TestZipCoversEveryCounter(t *testing.T) {
	var full Counters
	n := uint64(1)
	var fill func(f reflect.Value)
	fill = func(f reflect.Value) {
		switch f.Kind() {
		case reflect.Uint64:
			f.SetUint(n)
			n++
		case reflect.Array:
			for i := 0; i < f.Len(); i++ {
				fill(f.Index(i))
			}
		default:
			t.Fatalf("counter of kind %s", f.Kind())
		}
	}
	v := reflect.ValueOf(&full).Elem()
	for i := 0; i < v.NumField(); i++ {
		fill(v.Field(i))
	}
	var sum Counters
	sum.add(full)
	if sum != full {
		t.Errorf("add dropped counters:\n got %+v\nwant %+v", sum, full)
	}
	sum.sub(full)
	if sum != (Counters{}) {
		t.Errorf("sub left counters: %+v", sum)
	}
}

// TestRunModes covers what each mode reports beyond the counters, which
// the root package's facade/sweep parity test pins.
func TestRunModes(t *testing.T) {
	w, _ := workloads.ByName("poly_horner", 1)
	spec := func() Spec {
		return Spec{Program: w.Program(), Config: pipeline.DefaultConfig(pipeline.Reuse), Want: w.Want, Check: true}
	}

	full, err := Run(spec())
	if err != nil {
		t.Fatal(err)
	}
	if full.Core == nil || full.Estimate != nil || !full.Halted || !full.ChecksumOK || full.Ckpt != "" {
		t.Errorf("full run: core %v estimate %v halted %t ok %t ckpt %q",
			full.Core != nil, full.Estimate, full.Halted, full.ChecksumOK, full.Ckpt)
	}

	// A fast-forward past the end halts in the functional prefix: nothing
	// reaches the core, and the checksum still holds.
	s := spec()
	s.FastForward = 1 << 40
	pre, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if pre.Core != nil || !pre.Halted || !pre.ChecksumOK || pre.Ckpt != "miss" || pre.FFInsts != full.Insts {
		t.Errorf("halted in prefix: core %v halted %t ok %t ckpt %q ff %d (full run committed %d)",
			pre.Core != nil, pre.Halted, pre.ChecksumOK, pre.Ckpt, pre.FFInsts, full.Insts)
	}

	s = spec()
	s.Sample = "200:500:5000"
	smp, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if smp.Core != nil || smp.Estimate == nil || smp.IPC != smp.Estimate.IPCMean || smp.MPKI != 0 || !smp.Halted {
		t.Errorf("sampled run: core %v estimate %v ipc %g mpki %g halted %t",
			smp.Core != nil, smp.Estimate, smp.IPC, smp.MPKI, smp.Halted)
	}

	s = spec()
	s.Want++
	bad, err := Run(s)
	if err == nil || !strings.Contains(err.Error(), "checksum") || bad.ChecksumOK || bad.Core == nil {
		t.Errorf("wrong checksum: err %v ok %t core %v", err, bad.ChecksumOK, bad.Core != nil)
	}

	s = spec()
	s.Sample, s.FastForward = "200:500:5000", 1000
	if _, err := Run(s); err == nil {
		t.Error("sample with fast-forward should fail")
	}
}
