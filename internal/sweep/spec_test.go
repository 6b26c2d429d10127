package sweep

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/pipeline"
	"repro/internal/workloads"
)

func TestSpecExpansionDeterministic(t *testing.T) {
	spec := Spec{
		Workloads: []string{"poly_horner", "qsortint"},
		Schemes:   []string{"baseline", "reuse"},
		Scale:     1,
		Sizes:     []int{56, 96},
	}
	jobs, keys, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 8 || len(keys) != 8 {
		t.Fatalf("got %d jobs and %d keys, want 8", len(jobs), len(keys))
	}
	for i := range jobs {
		if keys[i] != jobs[i].Key() {
			t.Fatalf("keys[%d] = %s, want jobs[%d].Key() = %s", i, keys[i], i, jobs[i].Key())
		}
	}
	// Workload-major, then size, then scheme.
	want := Job{Workload: "poly_horner", Scheme: "reuse", Scale: 1, Size: 96}
	if jobs[3] != want {
		t.Errorf("jobs[3] = %+v, want %+v", jobs[3], want)
	}
	again, _, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if jobs[i] != again[i] {
			t.Fatalf("expansion not deterministic at %d: %+v vs %+v", i, jobs[i], again[i])
		}
	}
}

func TestSpecDefaults(t *testing.T) {
	jobs, _, err := Spec{Schemes: []string{"reuse"}, Workloads: []string{"dgemm"}}.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].Scale != 4 || jobs[0].Size != 0 {
		t.Fatalf("defaults not applied: %+v", jobs)
	}
}

// TestSpecSchemeValidationMatchesCLI: the spec and the CLI flags must reject
// an unknown scheme with the same single error message.
func TestSpecSchemeValidationMatchesCLI(t *testing.T) {
	_, cliErr := pipeline.ParseScheme("bogus")
	if cliErr == nil {
		t.Fatal("ParseScheme accepted bogus")
	}
	_, _, specErr := Spec{Schemes: []string{"bogus"}, Workloads: []string{"dgemm"}}.Jobs()
	if specErr == nil {
		t.Fatal("spec accepted bogus scheme")
	}
	if !strings.Contains(specErr.Error(), cliErr.Error()) {
		t.Errorf("spec error %q does not embed the shared ParseScheme message %q", specErr, cliErr)
	}
}

func TestSpecRejectsUnknownWorkloadAndDuplicates(t *testing.T) {
	if _, _, err := (Spec{Schemes: []string{"reuse"}, Workloads: []string{"nope"}}).Jobs(); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, _, err := (Spec{Schemes: []string{"reuse", "reuse"}, Workloads: []string{"dgemm"}}).Jobs(); err == nil {
		t.Error("duplicate job accepted")
	}
	// Baseline normalizes reuse knobs away, so baseline×{depth} ablations
	// collide by design — declared twice they must be rejected too.
	if _, _, err := (Spec{Schemes: []string{"baseline", "baseline"}, Workloads: []string{"dgemm"}}).Jobs(); err == nil {
		t.Error("duplicate baseline accepted")
	}
}

// TestBaselineNormalization: reuse knobs are no-ops for the baseline
// renamer and must not fragment its cache identity.
func TestBaselineNormalization(t *testing.T) {
	a, _, err := Spec{Schemes: []string{"baseline"}, Workloads: []string{"dgemm"}, Scale: 1, ReuseDepth: 2}.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Spec{Schemes: []string{"baseline"}, Workloads: []string{"dgemm"}, Scale: 1}.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if a[0].Key() != b[0].Key() {
		t.Errorf("baseline ablation fragmented the cache: %s vs %s", a[0].Key(), b[0].Key())
	}
}

// TestSpecExpandsAtScaleThree: a spec at a scale other than 1, 2, 4 and 8
// expands. Jobs generates each workload to validate its name, and hashjoin
// at scale 3 once never finished generating, which hung the POST /sweeps
// handler that asked.
func TestSpecExpandsAtScaleThree(t *testing.T) {
	type expansion struct {
		jobs []Job
		err  error
	}
	done := make(chan expansion, 1)
	go func() {
		jobs, _, err := Spec{Schemes: []string{"baseline", "reuse"}, Scale: 3}.Jobs()
		done <- expansion{jobs, err}
	}()
	var got expansion
	select {
	case got = <-done:
	case <-time.After(time.Minute):
		t.Fatal("a scale-3 spec did not expand within a minute")
	}
	if got.err != nil {
		t.Fatal(got.err)
	}
	if want := 2 * len(workloads.Names()); len(got.jobs) != want {
		t.Fatalf("got %d jobs, want %d", len(got.jobs), want)
	}
	if j := got.jobs[0]; j.Workload != "hashjoin" || j.Scale != 3 {
		t.Errorf("jobs[0] = %+v, want hashjoin at scale 3", j)
	}
}

// TestSpecRejectsUnbackableSizes: a swept file of 32 or fewer registers
// cannot back the logical registers, so its spec is refused and Run fails
// before simulating anything; a file of 33 is accepted.
func TestSpecRejectsUnbackableSizes(t *testing.T) {
	for _, c := range []struct {
		scheme string
		size   int
		ok     bool
	}{
		{"baseline", 32, false}, {"baseline", 33, true},
		{"reuse", 34, false}, {"reuse", 35, true},
		{"early", 34, false}, {"early", 35, true},
	} {
		_, _, err := Spec{Schemes: []string{c.scheme}, Workloads: []string{"poly_horner"}, Scale: 1, Sizes: []int{c.size}}.Jobs()
		if (err == nil) != c.ok {
			t.Errorf("%s at size %d: err = %v, want accepted=%t", c.scheme, c.size, err, c.ok)
		}
	}
	// The check runs once per (size, scheme), through the first workload:
	// an FP-heavy kernel sweeps the FP file and an integer kernel the
	// integer file, and either order refuses the same sizes.
	for _, c := range []struct {
		workloads []string
		class     string
	}{
		{[]string{"dgemm", "qsortint"}, "an FP register file of 32"},
		{[]string{"qsortint", "dgemm"}, "an integer register file of 32"},
	} {
		spec := Spec{Schemes: []string{"baseline", "reuse"}, Workloads: c.workloads, Scale: 1, Sizes: []int{64, 32}}
		if _, _, err := spec.Jobs(); err == nil || !strings.Contains(err.Error(), c.workloads[0]+"/baseline size 32: "+c.class) {
			t.Errorf("%v at size 32: err = %v, want the %q refusal", c.workloads, err, c.class)
		}
		spec.Sizes = []int{64, 35}
		if jobs, _, err := spec.Jobs(); err != nil || len(jobs) != 8 {
			t.Errorf("%v at sizes 64 and 35: %d jobs, err %v; want 8 jobs", c.workloads, len(jobs), err)
		}
	}
	spec := Spec{Schemes: []string{"baseline", "reuse"}, Workloads: []string{"poly_horner"}, Scale: 1, Sizes: []int{32, 64}}
	if res, err := Run(context.Background(), spec, Options{}); err == nil || res != nil {
		t.Fatalf("Run with size 32: result %+v, err %v; want no result and the spec error", res, err)
	}
}
