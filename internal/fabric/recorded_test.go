package fabric

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/sweep"
)

// groupKeys returns the job keys of groupSpec's grid.
func groupKeys(t *testing.T) []string {
	t.Helper()
	var spec sweep.Spec
	if err := json.Unmarshal([]byte(groupSpec), &spec); err != nil {
		t.Fatal(err)
	}
	_, keys, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	return keys
}

// TestResubmitServedFromRecordedResults: once the cold pass is recorded, a
// resubmission needs no result object. With every one of the grid's
// <key>.json deleted from the store, the grid is still served as cache hits
// without executing anything, and its results.json and manifest.jsonl equal
// those of a resubmission made before the deletion.
func TestResubmitServedFromRecordedResults(t *testing.T) {
	dir := t.TempDir()
	c, ts, _ := warmCoordinator(t, dir)
	before := submit(t, ts, groupSpec)
	if st := waitDone(t, ts, before); st.CacheHits != 4 {
		t.Fatalf("resubmission before the deletion: status %+v, want 4 cache hits", st)
	}
	wantResults := getResults(t, ts, before)
	wantManifest := readManifest(t, dir, before)

	for _, key := range groupKeys(t) {
		if err := os.Remove(filepath.Join(dir, "objects", key+".json")); err != nil {
			t.Fatal(err)
		}
		if _, ok := c.cache.Get(key); ok {
			t.Fatalf("the store still serves %s after its deletion", key)
		}
	}
	after := submit(t, ts, groupSpec)
	if st := waitDone(t, ts, after); st.CacheHits != 4 || st.Executed != 0 {
		t.Errorf("resubmission after the deletion: status %+v, want 4 cache hits and nothing executed", st)
	}
	if n := counterValue(t, ts, "fabric_jobs_executed"); n != 4 {
		t.Errorf("fabric_jobs_executed = %d, want the cold pass's 4", n)
	}
	if got := getResults(t, ts, after); !bytes.Equal(got, wantResults) {
		t.Errorf("results.json differs from the resubmission made before the deletion\ngot:\n%s\nwant:\n%s", got, wantResults)
	}
	if got := readManifest(t, dir, after); !bytes.Equal(got, wantManifest) {
		t.Errorf("manifest.jsonl differs from the resubmission made before the deletion\ngot:\n%s\nwant:\n%s", got, wantManifest)
	}
}

// TestUnrecordedKeysReadThroughStore: a coordinator that never recorded a
// key admits it from the store. A new coordinator over a store filled by
// another one starts with an empty index and, with no worker to execute
// anything, serves the whole grid as cache hits.
func TestUnrecordedKeysReadThroughStore(t *testing.T) {
	warm := t.TempDir()
	c, _, cold := warmCoordinator(t, warm)
	c.Close()
	want, err := os.ReadFile(filepath.Join(warm, "sweeps", cold, resultsFile))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	copyTree(t, filepath.Join(warm, "objects"), filepath.Join(dir, "objects"))
	fresh, ts := newLocal(t, dir, CoordinatorOptions{})
	fresh.mu.Lock()
	n := len(fresh.recorded)
	fresh.mu.Unlock()
	if n != 0 {
		t.Fatalf("a new coordinator starts with %d recorded results, want 0", n)
	}
	id := submit(t, ts, groupSpec)
	if st := getStatus(t, ts, id); st.State != "done" || st.CacheHits != 4 || st.Executed != 0 {
		t.Errorf("status %+v, want done with 4 cache hits read from the store", st)
	}
	if got := getResults(t, ts, id); !bytes.Equal(got, want) {
		t.Error("results.json differs from the cold pass's")
	}
}

// TestFailedOutcomesNotIndexed: a job recorded as failed never answers a
// later admission. Its resubmission is queued and fails again, not served
// as a cache hit. The job fails by a contained panic in its fast-forward's
// checkpoint store, which leaves the result store empty. A timed-out
// attempt would not do: its abandoned goroutine may still put the result,
// and the resubmission then rightly reads it through the store.
func TestFailedOutcomesNotIndexed(t *testing.T) {
	const spec = `{"workloads":["poly_horner"],"schemes":["reuse"],"scale":1,"fast_forward":1000}`
	c, ts := newLocal(t, t.TempDir(), CoordinatorOptions{})
	w := c.LocalWorker(WorkerOptions{ID: "l1", Logf: t.Logf})
	w.ckpts = ckpt.NewStoreWith(panicStore{})
	runLocalWorker(t, w)
	for pass := 1; pass <= 2; pass++ {
		id := submit(t, ts, spec)
		st := waitFinished(t, ts, id, time.Minute)
		if st.State != "failed" || st.Failed != 1 || st.CacheHits != 0 {
			t.Fatalf("pass %d: status %+v, want the job failed, not a cache hit", pass, st)
		}
	}
	c.mu.Lock()
	n := len(c.recorded)
	c.mu.Unlock()
	if n != 0 {
		t.Errorf("%d results recorded after two failed attempts, want 0", n)
	}
	if n := counterValue(t, ts, "fabric_jobs_failed"); n != 2 {
		t.Errorf("fabric_jobs_failed = %d, want 2", n)
	}
}

// TestRecordedIndexBounded: recording more distinct keys than recordedCap
// keeps the index within it, and the latest result is always indexed.
func TestRecordedIndexBounded(t *testing.T) {
	c, err := NewCoordinator(t.TempDir(), CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	n := 2*recordedCap + 1
	s := &sweepState{
		id:       "bound",
		jobCount: n,
		jobs:     make([]sweep.Job, n),
		keys:     make([]string, n),
		rows:     make([]*sweep.Row, n),
		done:     make([]bool, n),
		source:   make([]string, n),
		errs:     make([]string, n),
		state:    "running",
	}
	for i := range s.keys {
		s.keys[i] = fmt.Sprintf("%064x", i)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range s.keys {
		c.recordLocked(s, i, "run", &sweep.Row{Result: sweep.JobResult{Cycles: uint64(i)}}, "")
		if len(c.recorded) > recordedCap {
			t.Fatalf("%d results recorded hold %d in the index, over its bound %d", i+1, len(c.recorded), recordedCap)
		}
		if r, ok := c.recorded[s.keys[i]]; !ok || r.Result.Cycles != uint64(i) {
			t.Fatalf("the result just recorded for key %d is not indexed", i)
		}
	}
}
