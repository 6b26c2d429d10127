package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"
)

// refJob is the fixture the key tests mutate one field at a time.
func refJob() Job {
	return Job{Workload: "poly_horner", Scheme: "reuse", Scale: 1, Size: 64}
}

// TestKeyStableAcrossProcesses pins the key of a reference job to a
// recorded constant: the derivation must not depend on process state, map
// order, struct tags, or the Go version, or any previously cached result
// would silently stop matching. If this test fails, the key scheme changed
// — bump SchemaVersion and re-record.
func TestKeyStableAcrossProcesses(t *testing.T) {
	const want = "353dedd4379f3a8339ef7c06b8adc476d9168096b2509a364a15653a9a55221d"
	if got := refJob().Key(); got != want {
		t.Errorf("key drifted:\n got %s\nwant %s", got, want)
	}
	if got := refJob().Key(); got != refJob().Key() {
		t.Errorf("key not deterministic within a process: %s", got)
	}
}

// TestKeySensitivity: every parameter field must feed the key, so changing
// any one of them yields a different key.
func TestKeySensitivity(t *testing.T) {
	base := refJob().Key()
	mutations := map[string]func(*Job){
		"workload":                  func(j *Job) { j.Workload = "dgemm" },
		"scheme":                    func(j *Job) { j.Scheme = "baseline" },
		"scale":                     func(j *Job) { j.Scale = 4 },
		"size":                      func(j *Job) { j.Size = 96 },
		"size zero":                 func(j *Job) { j.Size = 0 },
		"reuse depth":               func(j *Job) { j.ReuseDepth = 2 },
		"disable speculative reuse": func(j *Job) { j.DisableSpeculativeReuse = true },
		"max insts":                 func(j *Job) { j.MaxInsts = 1000 },
		"fast forward":              func(j *Job) { j.FastForward = 10000 },
		"warmup":                    func(j *Job) { j.Warmup = 500 },
		"sample":                    func(j *Job) { j.Sample = "1000:2000:50000" },
	}
	seen := map[string]string{base: "unchanged"}
	for name, mutate := range mutations {
		j := refJob()
		mutate(&j)
		k := j.Key()
		if prev, dup := seen[k]; dup {
			t.Errorf("mutating %s collides with %s (key %s)", name, prev, k)
		}
		seen[k] = name
	}
}

// TestKeySchemaVersionInvalidatesAll: bumping the schema version must change
// every key, not just some.
func TestKeySchemaVersionInvalidatesAll(t *testing.T) {
	jobs := []Job{
		refJob(),
		{Workload: "dgemm", Scheme: "baseline", Scale: 4, Size: 48},
		{Workload: "qsortint", Scheme: "early", Scale: 1},
	}
	for _, j := range jobs {
		if keyAt(j, SchemaVersion) != j.Key() {
			t.Fatalf("keyAt(SchemaVersion) disagrees with Key() for %+v", j)
		}
		if keyAt(j, SchemaVersion) == keyAt(j, SchemaVersion+1) {
			t.Errorf("schema bump left key unchanged for %+v", j)
		}
	}
}

// TestCanonicalMatchesSprintf pins the strconv-built serialization to the
// fmt.Sprintf form the keys were first derived with: the same bytes, so
// the same key, for zero and negative ints, the largest uint64, an empty
// and a non-empty sample, and both values of the speculative-reuse flag.
func TestCanonicalMatchesSprintf(t *testing.T) {
	oracle := func(j Job, version int) string {
		return fmt.Sprintf(
			"regreuse-sweep-job|v%d|workload=%s|scheme=%s|scale=%d|size=%d|reuse_depth=%d|spec_reuse=%t|max_insts=%d|ff=%d|warm=%d|sample=%s",
			version, j.Workload, j.Scheme, j.Scale, j.Size,
			j.ReuseDepth, !j.DisableSpeculativeReuse, j.MaxInsts,
			j.FastForward, j.Warmup, j.Sample,
		)
	}
	for _, tc := range []struct {
		name    string
		job     Job
		version int
	}{
		{"reference", refJob(), SchemaVersion},
		{"zero", Job{}, 0},
		{"negative", Job{Workload: "dgemm", Scheme: "early", Scale: -1, Size: -64, ReuseDepth: -3}, -2},
		{"max-uint64", Job{Workload: "fir", Scheme: "baseline", Scale: 4, MaxInsts: math.MaxUint64,
			FastForward: math.MaxUint64, Warmup: math.MaxUint64}, math.MaxInt64},
		{"min-int", Job{Scale: math.MinInt64, Size: math.MinInt64, ReuseDepth: math.MinInt64}, math.MinInt64},
		{"sample", Job{Workload: "listwalk", Scheme: "reuse", Scale: 4, Sample: "2000:5000:100000"}, SchemaVersion},
		{"spec-reuse-off", Job{Workload: "nbody", Scheme: "reuse", DisableSpeculativeReuse: true, Sample: "1:2:3"}, SchemaVersion},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := oracle(tc.job, tc.version)
			if got := string(appendCanonical(nil, tc.job, tc.version)); got != want {
				t.Fatalf("canonical form\n got %s\nwant %s", got, want)
			}
			sum := sha256.Sum256([]byte(want))
			if got := keyAt(tc.job, tc.version); got != hex.EncodeToString(sum[:]) {
				t.Fatalf("keyAt = %s, want the hash of %q", got, want)
			}
		})
	}
}
