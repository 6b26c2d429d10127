package sweep

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/blob"
	"repro/internal/ckpt"
)

// tinySpec is the 4-job sweep (2 workloads × 2 schemes × 1 size) the engine
// tests run; small-scale workloads keep it fast.
func tinySpec() Spec {
	return Spec{
		Name:      "engine-test",
		Workloads: []string{"poly_horner", "qsortint"},
		Schemes:   []string{"baseline", "reuse"},
		Scale:     1,
		Sizes:     []int{64},
	}
}

func TestRunColdAndCacheWarm(t *testing.T) {
	cache, err := NewCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Run(context.Background(), tinySpec(), Options{Cache: cache, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.Executed != 4 || cold.Stats.CacheHits != 0 {
		t.Fatalf("cold run stats = %+v, want 4 executed", cold.Stats)
	}
	for i, r := range cold.Results {
		if r.Cycles == 0 || !r.ChecksumOK {
			t.Fatalf("degenerate result %d: %+v", i, r)
		}
	}
	// Identical spec against the same cache: zero simulator executions.
	warm, err := Run(context.Background(), tinySpec(), Options{Cache: cache, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.Executed != 0 || warm.Stats.CacheHits != 4 {
		t.Fatalf("warm run stats = %+v, want 4 cache hits and 0 executed", warm.Stats)
	}
	for i := range cold.Results {
		if cold.Results[i] != warm.Results[i] {
			t.Errorf("result %d differs between cold and cached run", i)
		}
	}
}

// failingStore is a blob.Store whose every access fails, as a broken
// backend would.
type failingStore struct{}

func (failingStore) Get(string) ([]byte, bool, error) { return nil, false, errors.New("store offline") }
func (failingStore) Put(string, []byte) error         { return errors.New("store offline") }

// TestRunRecordsFailures: a fast-forward job whose checkpoint store is
// broken fails, and Run records it without aborting the rest of the grid.
func TestRunRecordsFailures(t *testing.T) {
	spec := Spec{
		Workloads:   []string{"poly_horner"},
		Schemes:     []string{"baseline", "reuse"},
		Scale:       1,
		FastForward: 2000,
	}
	res, err := Run(context.Background(), spec, Options{Ckpt: ckpt.NewStoreWith(failingStore{}), Workers: 2})
	if err == nil || !strings.Contains(err.Error(), "2 of 2 jobs failed") {
		t.Fatalf("err = %v, want the 2 of 2 jobs failed summary", err)
	}
	if res == nil || res.Stats.Failed != 2 || res.Stats.Executed != 0 {
		t.Fatalf("stats = %+v, want 2 failed", res.Stats)
	}
	if len(res.Errors) != 2 || !strings.Contains(res.Errors[0], "poly_horner/baseline@0") || !strings.Contains(res.Errors[0], "store offline") {
		t.Fatalf("errors = %v", res.Errors)
	}
}

// panicStore is a blob store whose every call panics.
type panicStore struct{}

func (panicStore) Get(string) ([]byte, bool, error) { panic("blob store broken") }
func (panicStore) Put(string, []byte) error         { panic("blob store broken") }

// TestAttemptContainsPanic: a job that panics inside Execute, here in its
// fast-forward's checkpoint store, fails its attempt with the panic as the
// error and leaves no cache entry.
func TestAttemptContainsPanic(t *testing.T) {
	cache, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j := Job{Workload: "poly_horner", Scheme: "baseline", Scale: 1, FastForward: 1000}
	r, source, _, err := Attempt(j, j.Key(), cache, ckpt.NewStoreWith(panicStore{}), 1)
	if err == nil || !strings.Contains(err.Error(), "panicked") || source != "" || r != (JobResult{}) {
		t.Fatalf("attempt: result %+v, source %q, err %v; want only a panicked error", r, source, err)
	}
	if _, ok := cache.Get(j.Key()); ok {
		t.Error("a panicked attempt left a cache entry")
	}
}

// TestExecuteRefusesBadJobs: a job built directly, past Spec.Jobs, with a
// file that cannot back the logical registers or a reuse depth the shadow
// cells cannot hold is an error from Execute, not a panic; so is a sampling
// plan the program is too short to measure once, which names the plan and
// the instruction count.
func TestExecuteRefusesBadJobs(t *testing.T) {
	for _, c := range []struct {
		job  Job
		want string
	}{
		{Job{Workload: "poly_horner", Scheme: "baseline", Scale: 1, Size: 16}, "cannot back 32 logical registers"},
		{Job{Workload: "poly_horner", Scheme: "reuse", Scale: 1, ReuseDepth: 4}, "reuse depth 4 out of range"},
		{Job{Workload: "poly_horner", Scheme: "baseline", Scale: 1, Sample: "20000:5000:100000"}, "sample plan 20000:5000:100000 measured no interval in 75800 instructions"},
	} {
		if _, _, err := Execute(c.job, nil, 1); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%+v: err = %v, want %q", c.job, err, c.want)
		}
	}
}

// cancelOnGet is a cache store that cancels a context on its first lookup.
type cancelOnGet struct {
	blob.Store
	cancel context.CancelFunc
}

func (c cancelOnGet) Get(name string) ([]byte, bool, error) {
	c.cancel()
	return c.Store.Get(name)
}

// TestRunHonorsCancellation: once ctx is cancelled no further job starts;
// the one that was running finishes.
func TestRunHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	dir, err := blob.NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Workloads: []string{"poly_horner"}, Schemes: []string{"baseline", "reuse", "early"}, Scale: 1}
	res, err := Run(ctx, spec, Options{Workers: 1, Cache: NewCacheStore(cancelOnGet{dir, cancel})})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if res.Stats.Executed != 1 {
		t.Errorf("executed %d jobs, want 1: cancellation did not stop the sweep", res.Stats.Executed)
	}
}

// TestCacheRejectsForeignSchema: an entry written under a different schema
// version must read as a miss.
func TestCacheRejectsForeignSchema(t *testing.T) {
	dir := t.TempDir()
	cache, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	j := refJob()
	if err := cache.Put(j.Key(), j, JobResult{Cycles: 1}); err != nil {
		t.Fatal(err)
	}
	if _, ok := cache.Get(j.Key()); !ok {
		t.Fatal("fresh entry missed")
	}
	// Corrupt the version in place.
	path := filepath.Join(dir, j.Key()+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data = bytes.Replace(data,
		[]byte(fmt.Sprintf(`"schema_version": %d`, SchemaVersion)),
		[]byte(fmt.Sprintf(`"schema_version": %d`, SchemaVersion+1)), 1)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := cache.Get(j.Key()); ok {
		t.Error("foreign-schema entry served as a hit")
	}
}
